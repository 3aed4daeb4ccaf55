package clustering

import (
	"fmt"

	"dynmis/internal/graph"
)

// MaxOptimalNodes bounds the brute-force optimum: Bell(11) partitions is
// already ~678k, so we stop at 11 nodes.
const MaxOptimalNodes = 11

// OptimalCost computes the exact optimal correlation clustering cost of g
// by enumerating all set partitions (restricted growth strings). It is the
// ground truth for the 3-approximation test
// (clustering_test.go:TestThreeApproximation) and only works for small
// graphs.
func OptimalCost(g *graph.Graph) (int, error) {
	nodes := g.Nodes()
	n := len(nodes)
	if n > MaxOptimalNodes {
		return 0, fmt.Errorf("clustering: OptimalCost limited to %d nodes, got %d", MaxOptimalNodes, n)
	}
	if n == 0 {
		return 0, nil
	}

	idx := make(map[graph.NodeID]int, n)
	for i, v := range nodes {
		idx[v] = i
	}
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range g.Edges() {
		a, b := idx[e[0]], idx[e[1]]
		adj[a][b] = true
		adj[b][a] = true
	}

	cost := func(assign []int) int {
		c := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				same := assign[i] == assign[j]
				if same && !adj[i][j] {
					c++
				}
				if !same && adj[i][j] {
					c++
				}
			}
		}
		return c
	}

	best := -1
	assign := make([]int, n)
	maxSoFar := make([]int, n) // maxSoFar[i] = max(assign[0..i-1])

	// Iterate restricted growth strings: assign[0] = 0 and
	// assign[i] ≤ max(assign[0..i-1]) + 1.
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if c := cost(assign); best < 0 || c < best {
				best = c
			}
			return
		}
		limit := 0
		if i > 0 {
			limit = maxSoFar[i-1] + 1
		}
		for b := 0; b <= limit; b++ {
			assign[i] = b
			if i == 0 {
				maxSoFar[0] = 0
			} else {
				maxSoFar[i] = maxSoFar[i-1]
				if b > maxSoFar[i] {
					maxSoFar[i] = b
				}
			}
			rec(i + 1)
		}
	}
	rec(0)
	return best, nil
}
