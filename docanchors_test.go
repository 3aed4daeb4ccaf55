package dynmis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// anchorRE matches a `path.go:Ident` or `path.go:Type.Member` code anchor
// in the docs; the path is relative to the repository root.
var anchorRE = regexp.MustCompile(`([A-Za-z0-9_./-]+\.go):([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`)

// TestDocAnchorsResolve keeps the docs' code anchors from drifting: every
// `path.go:Ident` in README.md and docs/*.md must name an existing file
// that declares Ident — a func, type, var or const, or as Type.Member a
// method, a struct field or an interface method. The `file.go:Func`
// placeholder that explains the notation is skipped.
func TestDocAnchorsResolve(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{} // file → declared names, parsed once
	anchors := 0
	for _, doc := range append([]string{"README.md"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range anchorRE.FindAllStringSubmatch(string(text), -1) {
			file, ident := m[1], m[2]
			if m[0] == "file.go:Func" {
				continue
			}
			anchors++
			names, ok := decls[file]
			if !ok {
				names, err = declaredNames(file)
				if err != nil {
					t.Errorf("%s: anchor %s: %v", doc, m[0], err)
				}
				decls[file] = names
			}
			if names != nil && !names[ident] {
				t.Errorf("%s: anchor %s: %s declares no %s", doc, m[0], file, ident)
			}
		}
	}
	if anchors == 0 {
		t.Fatal("no code anchors found in the docs")
	}
}

// declaredNames parses a Go file and returns the names an anchor may
// use: top-level funcs, types, vars and consts, Type.Method for methods,
// and Type.Field / Type.Method for struct fields and interface methods.
func declaredNames(path string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
			} else if len(d.Recv.List) == 1 {
				names[typeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					for _, member := range memberNames(s.Type) {
						names[s.Name.Name+"."+member] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return names, nil
}

// typeName is the name of a receiver or embedded field type: T for T,
// *T, T[K], *T[K, V] and pkg.T.
func typeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// memberNames lists a struct type's field names (an embedded field by
// its type name) or an interface type's method names.
func memberNames(e ast.Expr) []string {
	var fields *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return nil
	}
	var names []string
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			names = append(names, typeName(f.Type))
		}
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
	}
	return names
}
