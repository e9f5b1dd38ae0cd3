// Package parallel provides the bounded, context-cancellable fan-out
// behind the toolkit's compute kernels (cross-validation folds, ensemble
// members, the k-means and EM loops, attribute-subset scans).
//
// The process has one level of parallelism. Its outer levels (the batch
// engine's jobs, the server's requests) already fill the cores, so a
// kernel gets helpers only from one process-wide budget of
// GOMAXPROCS − 1 tokens. ForEach takes what it can use without waiting,
// starts one helper goroutine per token, and runs block 0 on the calling
// goroutine; with no token free it runs the whole range inline, so a
// kernel nested in another kernel, a batch job or a request never
// oversubscribes. No caller passes a worker count.
//
// The design constraint is determinism: work is partitioned into
// contiguous index blocks, results are written to index-addressed slots,
// and callers reduce them in index order, so a kernel's output is
// bit-identical whatever the budget gave it. FlexDM (PAPERS.md) makes the
// throughput case for running independent WEKA experiments in parallel;
// this package keeps that outer level from multiplying with the inner one
// without giving up reproducibility.
package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
)

// held counts the helper tokens taken from the budget across the
// process. The budget is GOMAXPROCS(0) − 1, read on every call, so a
// runtime change of GOMAXPROCS takes effect at the next ForEach.
var held atomic.Int64

// acquire takes up to want tokens from a budget of limit without
// blocking and returns how many it took.
func acquire(want, limit int) int {
	for {
		h := held.Load()
		take := min(int64(want), int64(limit)-h)
		if take <= 0 {
			return 0
		}
		if held.CompareAndSwap(h, h+take) {
			return int(take)
		}
	}
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

// ForEach runs fn(i) for every i in [0, n). It takes up to
// min(GOMAXPROCS, n) − 1 helpers from the process-wide budget, splits
// the index space into one contiguous block per worker, and runs block 0
// on the calling goroutine. It returns ctx.Err() if the context was
// cancelled, and otherwise the error from the lowest index that failed;
// ctx is checked before every item. With no helper it allocates nothing.
func ForEach(ctx context.Context, n int, fn func(i int) error) error {
	k := 1
	if n > 1 {
		procs := runtime.GOMAXPROCS(0)
		k += acquire(min(procs, n)-1, procs-1)
	}
	var done chan failure
	if k > 1 {
		done = make(chan failure, k-1)
		for w := 1; w < k; w++ {
			lo, hi := block(n, k, w)
			go helper(ctx, fn, lo, hi, done)
		}
	}
	lo, hi := block(n, k, 0)
	first := run(ctx, fn, lo, hi)
	for w := 1; w < k; w++ {
		if f := <-done; f.err != nil && (first.err == nil || f.i < first.i) {
			first = f
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return first.err
}

// failure is a block's first failing index and its error; err is nil
// when the block ran to the end.
type failure struct {
	i   int
	err error
}

// run calls fn over [lo, hi) in order and stops at the first failure.
func run(ctx context.Context, fn func(i int) error, lo, hi int) failure {
	for i := lo; i < hi; i++ {
		err := ctx.Err()
		if err == nil {
			err = fn(i)
		}
		if err != nil {
			return failure{i, err}
		}
	}
	return failure{}
}

// helper runs one block on its own goroutine. It returns its token
// itself, before it reports, so the budget is restored by the time
// ForEach returns and however the caller's own block ends.
func helper(ctx context.Context, fn func(i int) error, lo, hi int, done chan<- failure) {
	var f failure
	defer func() {
		held.Add(-1)
		done <- f
	}()
	f = run(ctx, fn, lo, hi)
}
