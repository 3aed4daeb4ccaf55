package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule, sorting xs in place; 0 for an empty sample.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q * float64(len(xs)-1))
	return xs[i]
}

// median returns the median of xs without modifying it; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is one interval of a timed phase: the changes completed in it,
// the time that took, and the index ranges of the latency samples that
// fell in it (engine calls or requests, and events).
type window struct {
	changes        int
	busy           time.Duration
	callLo, callHi int
	evLo, evHi     int
}

func (w window) rate() float64 { return float64(w.changes) / w.busy.Seconds() }

// fasterHalf keeps the faster half of ws by rate (see e2eMetrics for
// why closed-loop figures are measured over it).
func fasterHalf(ws []window) []window {
	rates := make([]float64, len(ws))
	for i, w := range ws {
		rates[i] = w.rate()
	}
	cut := median(rates)
	var fast []window
	for _, w := range ws {
		if w.rate() >= cut {
			fast = append(fast, w)
		}
	}
	return fast
}

// summarize is the throughput over ws (their changes over their time)
// and the call and event latency samples that fell in them.
func summarize(ws []window, calls, events []time.Duration) (rate float64, callLat, evLat []time.Duration) {
	var (
		n    int
		busy time.Duration
	)
	for _, w := range ws {
		n += w.changes
		busy += w.busy
		callLat = append(callLat, calls[w.callLo:w.callHi]...)
		evLat = append(evLat, events[w.evLo:w.evHi]...)
	}
	return float64(n) / busy.Seconds(), callLat, evLat
}

// rateMeter cuts a timed phase into windows: work is added with the
// busy time it took and the running counts of latency samples, and a
// window closes once its busy time reaches the interval.
type rateMeter struct {
	interval time.Duration
	windows  []window
	cur      window
	total    int
	elapsed  time.Duration
}

func (r *rateMeter) add(n int, d time.Duration, calls, events int) {
	r.cur.changes += n
	r.cur.busy += d
	r.cur.callHi, r.cur.evHi = calls, events
	r.total += n
	r.elapsed += d
	if r.cur.busy >= r.interval {
		r.windows = append(r.windows, r.cur)
		r.cur = window{callLo: calls, callHi: calls, evLo: events, evHi: events}
	}
}

// measured returns the windows the reported figures are computed over:
// the faster half of the closed windows, or the whole phase as one
// window when it was shorter than an interval.
func (r *rateMeter) measured() []window {
	if len(r.windows) == 0 {
		return []window{{changes: r.total, busy: r.elapsed, callHi: r.cur.callHi, evHi: r.cur.evHi}}
	}
	return fasterHalf(r.windows)
}

// overall is total/elapsed, printed beside the windows.
func (r *rateMeter) overall() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.total) / r.elapsed.Seconds()
}

// formatRates renders window rates compactly, in thousands per second.
func formatRates(ws []window) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = strconv.FormatFloat(w.rate()/1e3, 'f', 1, 64) + "k"
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self" or
// a pid) from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTime is the CPU time (user + system) this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
