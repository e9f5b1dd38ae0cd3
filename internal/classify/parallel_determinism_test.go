package classify

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// setProcs sets GOMAXPROCS to p, restoring the original when t ends.
// Kernels take their worker count from GOMAXPROCS, so this is how a test
// varies it.
func setProcs(t *testing.T, p int) {
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
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
	for _, p := range []int{2, 8} {
		runtime.GOMAXPROCS(p)
		ev, err := CrossValidateContext(context.Background(), factory, d, 5, 42)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		if math.Float64bits(ev.Accuracy()) != math.Float64bits(base.Accuracy()) {
			t.Fatalf("GOMAXPROCS %d: accuracy %v != %v", p, ev.Accuracy(), base.Accuracy())
		}
		if math.Float64bits(ev.Kappa()) != math.Float64bits(base.Kappa()) {
			t.Fatalf("GOMAXPROCS %d: kappa %v != %v", p, ev.Kappa(), base.Kappa())
		}
		if ev.String() != base.String() {
			t.Fatalf("GOMAXPROCS %d: evaluation text differs from sequential:\n%s\n---\n%s",
				p, ev.String(), base.String())
		}
	}
}

// TestBaggingParallelDeterminism trains the ensemble at several
// GOMAXPROCS settings and demands bit-identical class distributions on
// every instance: each member derives its bootstrap rng from the member
// index, not from scheduling order.
func TestBaggingParallelDeterminism(t *testing.T) {
	d := datagen.IrisLike(25, 3)
	setProcs(t, 1)
	train := func(p int) *Bagging {
		runtime.GOMAXPROCS(p)
		b := &Bagging{Size: 8, Seed: 11}
		if err := b.Train(d); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		return b
	}
	base := train(1)
	for _, p := range []int{2, 8} {
		b := train(p)
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
				t.Fatalf("GOMAXPROCS %d: distribution length %d != %d", p, len(got), len(want))
			}
			for c := range got {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("GOMAXPROCS %d instance %d class %d: %v != %v",
						p, i, c, got[c], want[c])
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
