package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"dynmis"
	"dynmis/server"
	"dynmis/trace"
)

// encodeBody renders changes as a POST /v1/changes body: a JSON array
// of trace records.
func encodeBody(cs []dynmis.Change) ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, c := range cs {
		if i > 0 {
			b.WriteByte(',')
		}
		rec, err := trace.MarshalChange(c)
		if err != nil {
			return nil, err
		}
		b.Write(rec)
	}
	b.WriteByte(']')
	return b.Bytes(), nil
}

// request is the load generator's account of one request. Times are
// offsets from the start of the timed phase.
type request struct {
	due, sent, acked time.Duration
	changes          int
	status           int // 0: no response
	accepted         int
	rejected         int
	seq              uint64 // event watermark in the ack
}

// ok reports whether every change of the request was acknowledged.
func (r request) ok() bool {
	return r.status == http.StatusOK && r.rejected == 0 && r.accepted == r.changes
}

// sendAll posts the bodies over one connection, in order. With rate > 0
// the loop is open: request i is due at i/rate, and a request that
// cannot be sent on time (the previous one has not been acked) is sent
// late, its wait counted in its latency. With rate 0 the loop is
// closed: each request is due when it is sent, and sending stops once
// budget has elapsed. onAck, if set, sees every request as it is acked.
func sendAll(ctx context.Context, client *http.Client, url string, bodies [][]byte, counts []int,
	rate float64, budget time.Duration, t0 time.Time, onAck func(int, request)) ([]request, error) {
	reqs := make([]request, 0, len(bodies))
	for i, body := range bodies {
		if err := ctx.Err(); err != nil {
			return reqs, err
		}
		r := request{changes: counts[i]}
		if rate > 0 {
			r.due = time.Duration(float64(i) / rate * float64(time.Second))
			if wait := r.due - time.Since(t0); wait > 0 {
				time.Sleep(wait)
			}
			r.sent = time.Since(t0)
		} else {
			r.sent = time.Since(t0)
			if r.sent >= budget {
				break
			}
			r.due = r.sent
		}
		err := post(ctx, client, url, body, &r)
		r.acked = time.Since(t0)
		if err != nil {
			return reqs, err
		}
		reqs = append(reqs, r)
		if onAck != nil {
			onAck(i, r)
		}
	}
	return reqs, nil
}

// post sends one ingest request and reads its ack into r.
func post(ctx context.Context, client *http.Client, url string, body []byte, r *request) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var ack server.IngestResult
	if err := json.Unmarshal(data, &ack); err != nil {
		return fmt.Errorf("decode ack: %w", err)
	}
	r.accepted, r.rejected, r.seq = ack.Accepted, ack.Rejected, ack.Seq
	return nil
}

// received is one event as the subscriber saw it.
type received struct {
	seq     uint64
	at      time.Duration // receipt, as an offset from the timed phase start
	deliver time.Duration // receipt wall clock minus WireEvent.TS
}

// subscriber holds one NDJSON subscription to /v1/events and checks the
// stream is gap-free.
type subscriber struct {
	cursor atomic.Uint64
	events []received
	bytes  int64
	err    error
	done   chan struct{}
}

// subscribe opens GET /v1/events?from=from in a goroutine that reads
// until ctx is cancelled or the stream ends. (The daemon sends the
// response header with the first event, so the request cannot be
// waited for here.) Only seq and ts are parsed out of each event line,
// so the subscriber's CPU use stays small next to the daemon's.
func subscribe(ctx context.Context, client *http.Client, base string, from uint64, t0 time.Time) *subscriber {
	s := &subscriber{done: make(chan struct{}), events: make([]received, 0, 1<<16)}
	s.cursor.Store(from)
	go func() {
		defer close(s.done)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events?from="+strconv.FormatUint(from, 10), nil)
		if err != nil {
			s.err = err
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				s.err = err
			}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			s.err = fmt.Errorf("GET /v1/events: %s", resp.Status)
			return
		}
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		cursor := from
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				if ctx.Err() == nil && !errors.Is(err, io.EOF) {
					s.err = err
				}
				return
			}
			now := time.Now()
			s.bytes += int64(len(line))
			seq, ok := jsonUint(line, `"seq":`)
			if !bytes.HasPrefix(line, []byte(`{"seq":`)) || !ok {
				return // a terminal record: end or lagged
			}
			if seq != cursor+1 {
				s.err = fmt.Errorf("event stream gap: after seq %d got %d", cursor, seq)
				return
			}
			ts, _ := jsonUint(line, `"ts":`)
			s.events = append(s.events, received{
				seq: seq, at: now.Sub(t0), deliver: time.Duration(now.UnixNano() - int64(ts)),
			})
			cursor = seq
			s.cursor.Store(seq)
		}
	}()
	return s
}

// await waits until the subscriber has received every event up to seq,
// then ends the subscription.
func (s *subscriber) await(seq uint64, cancel context.CancelFunc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.cursor.Load() < seq {
		select {
		case <-s.done:
			if s.err != nil {
				return s.err
			}
			return fmt.Errorf("event stream ended at seq %d, want %d", s.cursor.Load(), seq)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			cancel()
			<-s.done
			return fmt.Errorf("subscriber stalled at seq %d, want %d", s.cursor.Load(), seq)
		}
	}
	cancel()
	<-s.done
	return s.err
}

// jsonUint parses the unsigned integer that follows key in line.
func jsonUint(line []byte, key string) (uint64, bool) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	k := j
	for k < len(line) && line[k] >= '0' && line[k] <= '9' {
		k++
	}
	v, err := strconv.ParseUint(string(line[j:k]), 10, 64)
	return v, err == nil
}

// eventLatencies maps each event after seq `after` to the request that
// caused it — the first request whose ack watermark covers the event's
// seq — and returns, in seq order, receipt minus that request's due
// time and the request's index. Requests are acked in order over one
// connection, so their watermarks ascend.
func eventLatencies(reqs []request, events []received, after uint64) (lat []time.Duration, req []int) {
	lat = make([]time.Duration, 0, len(events))
	req = make([]int, 0, len(events))
	for _, ev := range events {
		if ev.seq <= after {
			continue
		}
		i := sort.Search(len(reqs), func(i int) bool { return reqs[i].seq >= ev.seq })
		if i == len(reqs) {
			continue // an event no acked request covers
		}
		lat = append(lat, ev.at-reqs[i].due)
		req = append(req, i)
	}
	return lat, req
}

// ackWindows cuts requests into windows by ack time, counted from
// start: window b holds the requests acked in interval b, and the event
// samples of those requests (evReq: the ascending request index of each
// sample). A window's time runs from the previous window's last ack to
// its own, so an open loop that keeps up reads its offered rate, one
// that falls behind reads less, and an interval without acks (a stall)
// is charged to the next window. Only whole intervals count; a phase
// shorter than one interval is one window.
func ackWindows(reqs []request, evReq []int, start, interval time.Duration) []window {
	if len(reqs) == 0 {
		return nil
	}
	full := int((reqs[len(reqs)-1].acked - start) / interval)
	if full == 0 {
		full = 1
		interval = reqs[len(reqs)-1].acked - start + 1
	}
	var (
		ws   []window
		prev time.Duration
		lo   int
	)
	for b := 1; b <= full; b++ {
		hi := lo
		for hi < len(reqs) && reqs[hi].acked-start < time.Duration(b)*interval {
			hi++
		}
		if hi == lo {
			continue
		}
		last := reqs[hi-1].acked - start
		w := window{busy: last - prev, callLo: lo, callHi: hi,
			evLo: sort.SearchInts(evReq, lo), evHi: sort.SearchInts(evReq, hi)}
		for _, r := range reqs[lo:hi] {
			w.changes += r.accepted
		}
		ws = append(ws, w)
		prev, lo = last, hi
	}
	return ws
}
