// Package parallel provides the bounded, context-cancellable worker
// helpers behind every compute kernel in the toolkit (cross-validation
// folds, ensemble members, the k-means and EM loops, attribute-subset
// scans). It is the only code that decides how many goroutines a kernel
// uses: one per GOMAXPROCS, capped at the number of items. No caller
// passes a worker count. The design constraint is determinism: work is
// partitioned into contiguous index blocks, results are written to
// index-addressed slots, and callers reduce them in index order, so a
// kernel produces bit-identical output at any GOMAXPROCS. FlexDM
// (PAPERS.md) demonstrates the throughput case for parallel WEKA
// experiment execution; this package supplies the primitive without
// giving up reproducibility.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// workers is the goroutine count for a kernel over n items: GOMAXPROCS,
// capped at n.
func workers(n int) int {
	return min(runtime.GOMAXPROCS(0), n)
}

// block is worker w's contiguous index range [lo, hi) when n items are
// split over k workers: the first n%k workers take one extra item. The
// partition depends only on (n, k), so per-index work placement is
// stable from run to run.
func block(n, k, w int) (lo, hi int) {
	q, r := n/k, n%k
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}

// DeriveSeed mixes a base seed with a stream index into an independent
// seed (splitmix64 finaliser). Sequential seeds like base+i produce
// correlated rand streams and collide across members when base itself
// varies by one; the mix keeps per-member RNGs reproducible and
// independent of training order.
func DeriveSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Stats reports how a kernel run spent its time: Wall is the elapsed
// time of the whole ForEachStats call, Busy the summed in-worker time.
// Utilisation approaches Workers×100% when the partition is balanced.
type Stats struct {
	Workers int
	Wall    time.Duration
	Busy    time.Duration
}

// Utilisation returns Busy as a percentage of Workers×Wall — 100 means
// every worker was busy for the whole wall-clock span.
func (s Stats) Utilisation() float64 {
	if s.Workers <= 0 || s.Wall <= 0 {
		return 0
	}
	return 100 * float64(s.Busy) / (float64(s.Workers) * float64(s.Wall))
}

// ForEach runs fn(i) for every i in [0, n) on one goroutine per
// GOMAXPROCS (at most n), partitioning the index space into contiguous
// blocks (one per worker). It returns the error from the lowest index
// that failed, or ctx.Err() if the context was cancelled first. With one
// worker it runs inline on the calling goroutine, checking ctx between
// items — the sequential path allocates nothing.
func ForEach(ctx context.Context, n int, fn func(i int) error) error {
	_, err := forEach(ctx, n, workers(n), fn, false)
	return err
}

// ForEachStats is ForEach plus worker-granularity timing for obs
// instrumentation.
func ForEachStats(ctx context.Context, n int, fn func(i int) error) (Stats, error) {
	return forEach(ctx, n, workers(n), fn, true)
}

// forEach is ForEach on k workers.
func forEach(ctx context.Context, n, k int, fn func(i int) error, timed bool) (Stats, error) {
	if n <= 0 {
		return Stats{Workers: 1}, ctx.Err()
	}
	if k <= 1 {
		return sequential(ctx, n, fn, timed)
	}

	start := time.Now()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		busy time.Duration
		// firstErr is the error from the lowest failing index; errIdx
		// tracks that index so later failures don't shadow earlier ones.
		firstErr error
		errIdx   int
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
		mu.Unlock()
	}
	for w := 0; w < k; w++ {
		lo, hi := block(n, k, w)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					record(i, err)
					break
				}
				if err := fn(i); err != nil {
					record(i, err)
					break
				}
			}
			if timed {
				d := time.Since(t0)
				mu.Lock()
				busy += d
				mu.Unlock()
			}
		}(lo, hi)
	}
	wg.Wait()
	st := Stats{Workers: k, Busy: busy}
	if timed {
		st.Wall = time.Since(start)
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	return st, firstErr
}

func sequential(ctx context.Context, n int, fn func(i int) error, timed bool) (Stats, error) {
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	st := Stats{Workers: 1}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if err := fn(i); err != nil {
			return st, err
		}
	}
	if timed {
		st.Wall = time.Since(t0)
		st.Busy = st.Wall
	}
	return st, nil
}

// Observe records a kernel run in reg (obs.Default when nil): duration
// histogram, worker/utilisation gauges, and a run counter, all labelled
// kernel=<name>.
func Observe(reg *obs.Registry, kernel string, s Stats) {
	if reg == nil {
		reg = obs.Default
	}
	label := "kernel=" + kernel
	reg.Histogram("kernel_ms", label).Observe(float64(s.Wall) / float64(time.Millisecond))
	reg.Gauge("kernel_workers", label).Set(int64(s.Workers))
	reg.Gauge("kernel_utilisation_pct", label).Set(int64(s.Utilisation()))
	reg.Counter("kernel_runs_total", label).Inc()
}
