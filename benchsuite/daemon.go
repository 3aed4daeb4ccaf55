package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynmis/server"
)

// daemon is a dynmisd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// bootTimeout bounds exec → first /healthz 200 (WAL recovery included).
const bootTimeout = 120 * time.Second

// startDaemon execs dynmisd on an ephemeral port with the given WAL and
// flags (engine seed fixed at 1) and returns once /healthz answers 200,
// with the time that took: the set-up time of the serve workloads.
func startDaemon(ctx context.Context, bin, dir, wal string, flags []string) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-wal", wal, "-seed", "1"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// Should the suite die without stopping it, the kernel stops the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dynmisd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()

	ctx, cancel := context.WithTimeout(ctx, bootTimeout)
	defer cancel()
	client := &http.Client{}
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("dynmisd exited during boot: %v", d.err)
		case <-ctx.Done():
			d.stop()
			return nil, 0, fmt.Errorf("dynmisd boot: %w", ctx.Err())
		default:
		}
		if d.base == "" {
			// The address file is complete once it ends in a newline.
			if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
				d.base = "http://" + strings.TrimSpace(string(b))
			} else {
				time.Sleep(time.Millisecond)
				continue
			}
		}
		// The listener is bound before recovery starts, so this request
		// waits until the daemon serves: its answer marks the end of boot.
		if err := getJSON(ctx, client, d.base+"/healthz", nil); err == nil {
			return d, time.Since(start), nil
		}
		time.Sleep(time.Millisecond)
	}
}

// pid names the child for /proc.
func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop ends the child gracefully (SIGTERM: drain, fsync, final
// snapshot) and waits for it, killing it if it does not exit in time.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.err
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("dynmisd ignored SIGTERM for 30s; killed")
	}
}

// getJSON GETs url and decodes a 200 response into v (nil: discard).
func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metricsz fetches the daemon's counters.
func (d *daemon) metricsz(ctx context.Context, client *http.Client) (server.Metricsz, error) {
	var mz server.Metricsz
	err := getJSON(ctx, client, d.base+"/metricsz", &mz)
	return mz, err
}
