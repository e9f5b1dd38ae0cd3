package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rounds is how many equal slices the timed window is cut into;
// throughput is the median across them.
const rounds = 5

// sample is one completed client operation.
type sample struct {
	end  time.Duration // completion time, from the start of the window
	dur  time.Duration // latency of the client call alone, without the oracle check
	rows int
	err  error
}

// closedLoop drives the instance with one caller per entry of from, each
// sending its next request only after the previous reply was checked,
// while more(done, elapsed) holds for the caller's own count of completed
// operations and the time since the loop began. from[c] is the index of
// client c's next operation and is advanced, so warm-up and timed phases
// walk one sequence. A non-nil tracer records a root span per call.
func closedLoop(ctx context.Context, in *instance, from []int, more func(done int, elapsed time.Duration) bool, tr *tracer) []sample {
	var (
		mu  sync.Mutex
		all []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := range from {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for more(len(mine), time.Since(start)) {
				req := in.next(c, from[c])
				from[c]++
				mine = append(mine, doRequest(ctx, req, start, tr))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// forWindow keeps every caller going until the window closes.
func forWindow(window time.Duration) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed < window }
}

// forOps gives every caller n operations.
func forOps(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done < n }
}

// firstFailure returns the error of the first failed sample, if any.
func firstFailure(samples []sample) error {
	for _, s := range samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// doRequest performs and checks one operation.
func doRequest(ctx context.Context, req *request, windowStart time.Time, tr *tracer) sample {
	callCtx, traceID := ctx, ""
	if tr != nil {
		callCtx, traceID = tr.join(ctx)
	}
	began := time.Now()
	reply, err := req.call(callCtx)
	done := time.Now()
	if tr != nil {
		tr.root(traceID, req.op, began, done)
	}
	s := sample{end: done.Sub(windowStart), dur: done.Sub(began), err: err}
	if err == nil {
		if s.err = req.check(reply); s.err == nil {
			s.rows = req.rows
		}
	}
	return s
}

// timing is the end-to-end outcome of one timed window.
type timing struct {
	rowsPerSec float64
	p50ms      float64
	p95ms      float64
	samples    int // successful calls in the window
	minRound   int // successful calls in the leanest round, which its p95 rests on
	attempted  int
	failed     int
	firstErr   error
	rows       int
	perRound   []float64 // rows/s of each round
	p50s, p95s []float64 // latency percentiles of each round, ms
}

// summarize reduces the samples of a window of `rounds` rounds. Each
// round yields its own rows/s, p50 and p95, from the calls that completed
// in it, and every figure reported is the median of the five: the host
// slows down for seconds at a time, and a round or two so disturbed then
// move nothing. Operations still in flight when the window closed are
// left out. lenient, for windows too short to measure anything (the
// smoke mode, the phases of the traced run), keeps them in the last round
// and reports a round's slowest call when too few lie beyond its p95.
func summarize(samples []sample, window time.Duration, lenient bool) (timing, error) {
	var t timing
	round := window / rounds
	rowsIn := make([]int, rounds)
	lat := make([][]float64, rounds)
	for _, s := range samples {
		if s.end >= window {
			if !lenient {
				continue
			}
			s.end = window - 1
		}
		t.attempted++
		if s.err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = s.err
			}
			continue
		}
		k := min(int(s.end/round), rounds-1) // the window need not divide evenly
		rowsIn[k] += s.rows
		t.rows += s.rows
		lat[k] = append(lat[k], float64(s.dur)/float64(time.Millisecond))
		t.samples++
	}
	if t.samples == 0 {
		if t.firstErr != nil {
			return t, fmt.Errorf("no operation succeeded: %w", t.firstErr)
		}
		return t, fmt.Errorf("no operation completed in %v", window)
	}
	t.minRound = t.samples
	for k, l := range lat {
		t.perRound = append(t.perRound, float64(rowsIn[k])/round.Seconds())
		t.minRound = min(t.minRound, len(l))
		if len(l) == 0 {
			if !lenient {
				return t, fmt.Errorf("no operation completed in round %d", k+1)
			}
			continue
		}
		sort.Float64s(l)
		p95, err := percentile(l, 0.95)
		if err != nil {
			if !lenient {
				return t, fmt.Errorf("round %d: %w", k+1, err)
			}
			p95 = l[len(l)-1]
		}
		t.p50s, t.p95s = append(t.p50s, median(l)), append(t.p95s, p95)
	}
	t.rowsPerSec, t.p50ms, t.p95ms = median(t.perRound), median(t.p50s), median(t.p95s)
	return t, nil
}

// memDelta is the allocation cost of a window, process-wide: clients,
// server and oracle checks share the process.
type memDelta struct{ mallocs, bytes uint64 }

func memNow() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.TotalAlloc}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// peakRSSMB reads the process's high-water resident set (VmHWM); 0 when
// /proc is not there.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
