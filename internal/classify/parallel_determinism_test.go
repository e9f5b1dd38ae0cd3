package classify

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// setProcs sets GOMAXPROCS to p, restoring the original when t ends.
// Kernels size their helper budget from GOMAXPROCS, so this is how a
// test varies it.
func setProcs(t *testing.T, p int) {
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// contended builds 4 copies of a kernel inside an outer ForEach at
// GOMAXPROCS 2, so the copies compete for the one helper token and each
// kernel's blocks run partly inline and partly on a helper.
func contended[T any](t *testing.T, build func() (T, error)) []T {
	t.Helper()
	runtime.GOMAXPROCS(2)
	out := make([]T, 4)
	err := parallel.ForEach(context.Background(), len(out), func(i int) error {
		var err error
		out[i], err = build()
		return err
	})
	if err != nil {
		t.Fatalf("contended: %v", err)
	}
	return out
}

// TestCrossValidateParallelDeterminism checks the tentpole guarantee: the
// parallel fold kernel replays fold records in order, so the evaluation is
// byte-identical at any GOMAXPROCS.
func TestCrossValidateParallelDeterminism(t *testing.T) {
	d := datagen.IrisLike(30, 7)
	factory := func() Classifier { return &NaiveBayes{} }
	setProcs(t, 1)
	base, err := CrossValidateContext(context.Background(), factory, d, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	check := func(run string, ev *Evaluation) {
		if math.Float64bits(ev.Accuracy()) != math.Float64bits(base.Accuracy()) {
			t.Fatalf("%s: accuracy %v != %v", run, ev.Accuracy(), base.Accuracy())
		}
		if math.Float64bits(ev.Kappa()) != math.Float64bits(base.Kappa()) {
			t.Fatalf("%s: kappa %v != %v", run, ev.Kappa(), base.Kappa())
		}
		if ev.String() != base.String() {
			t.Fatalf("%s: evaluation text differs from sequential:\n%s\n---\n%s",
				run, ev.String(), base.String())
		}
	}
	cv := func() (*Evaluation, error) {
		return CrossValidateContext(context.Background(), factory, d, 5, 42)
	}
	for _, p := range []int{2, 8} {
		runtime.GOMAXPROCS(p)
		ev, err := cv()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		check(fmt.Sprintf("GOMAXPROCS %d", p), ev)
	}
	for i, ev := range contended(t, cv) {
		check(fmt.Sprintf("contended copy %d", i), ev)
	}
}

// TestCrossValidateRecordsKernelMetrics: every run lands in the
// kernel_ms histogram and the kernel_runs_total counter that /metrics
// serves for kernel=crossvalidate.
func TestCrossValidateRecordsKernelMetrics(t *testing.T) {
	runs := obs.Default.Counter("kernel_runs_total", "kernel=crossvalidate")
	ms := obs.Default.Histogram("kernel_ms", "kernel=crossvalidate")
	runsBefore, msBefore := runs.Value(), ms.Count()
	if _, err := CrossValidateContext(context.Background(), func() Classifier { return &NaiveBayes{} }, datagen.Weather(), 3, 1); err != nil {
		t.Fatal(err)
	}
	if got := runs.Value() - runsBefore; got != 1 {
		t.Fatalf("kernel_runs_total rose by %d, want 1", got)
	}
	if got := ms.Count() - msBefore; got != 1 {
		t.Fatalf("kernel_ms took %d observations, want 1", got)
	}
}

// TestBaggingParallelDeterminism trains the ensemble at several
// GOMAXPROCS settings and demands bit-identical class distributions on
// every instance: each member derives its bootstrap rng from the member
// index, not from scheduling order.
func TestBaggingParallelDeterminism(t *testing.T) {
	d := datagen.IrisLike(25, 3)
	setProcs(t, 1)
	build := func() (*Bagging, error) {
		b := &Bagging{Size: 8, Seed: 11}
		return b, b.Train(d)
	}
	train := func(p int) *Bagging {
		runtime.GOMAXPROCS(p)
		b, err := build()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		return b
	}
	base := train(1)
	runs := map[string]*Bagging{"GOMAXPROCS 2": train(2), "GOMAXPROCS 8": train(8)}
	for i, b := range contended(t, build) {
		runs[fmt.Sprintf("contended copy %d", i)] = b
	}
	for run, b := range runs {
		for i, in := range d.Instances {
			want, err := base.Distribution(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Distribution(in)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: distribution length %d != %d", run, len(got), len(want))
			}
			for c := range got {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("%s instance %d class %d: %v != %v",
						run, i, c, got[c], want[c])
				}
			}
		}
	}
}

// blockingTrainer parks in TrainContext until the context is cancelled,
// signalling on started once training has begun.
type blockingTrainer struct {
	started chan struct{}
}

func (b *blockingTrainer) Name() string                 { return "blocking" }
func (b *blockingTrainer) Train(*dataset.Dataset) error { return nil }
func (b *blockingTrainer) TrainContext(ctx context.Context, _ *dataset.Dataset) error {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return ctx.Err()
}
func (b *blockingTrainer) Distribution(*dataset.Instance) ([]float64, error) {
	return []float64{1, 0}, nil
}

// TestCrossValidateCancellation cancels mid-fold and checks the kernel
// returns promptly with the context error and leaks no fold goroutines.
func TestCrossValidateCancellation(t *testing.T) {
	d := datagen.Weather()
	started := make(chan struct{}, 1)
	factory := func() Classifier { return &blockingTrainer{started: started} }
	setProcs(t, 4)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	begin := time.Now()
	ev, err := CrossValidateContext(ctx, factory, d, 5, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ev != nil {
		t.Fatalf("evaluation should be nil on cancellation, got %v", ev)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}

	// Workers must all have exited; allow the runtime a moment to reap.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}
