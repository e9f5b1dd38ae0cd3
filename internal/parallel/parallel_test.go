package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// forEachN is ForEach at an explicit worker count.
func forEachN(ctx context.Context, n, workers int, fn func(i int) error) error {
	_, err := forEach(ctx, n, workers, fn, false)
	return err
}

func TestWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for n, want := range map[int]int{0: 0, 1: 1, 3: 3, 4: 4, 1000: 4} {
		if got := workers(n); got != want {
			t.Fatalf("workers(%d) at GOMAXPROCS 4 = %d, want %d", n, got, want)
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		n := 57
		hits := make([]int32, n)
		err := forEachN(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := forEachN(context.Background(), 0, 4, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	// Run repeatedly: with racing workers the lowest failing index must
	// still win every time.
	for trial := 0; trial < 20; trial++ {
		err := forEachN(context.Background(), 64, 8, func(i int) error {
			switch i {
			case 3:
				return errLow
			case 60:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: got %v, want %v", trial, err, errLow)
		}
	}
}

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- forEachN(ctx, 1000, 4, func(i int) error {
			if started.Add(1) == 1 {
				cancel()
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d items ran despite cancellation", n)
	}
}

func TestSequentialPathChecksContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := forEachN(ctx, 100, 1, func(i int) error {
		ran++
		if i == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	if ran != 5 {
		t.Fatalf("ran %d items after cancel at index 4", ran)
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		for i := 0; i < 64; i++ {
			s := DeriveSeed(base, i)
			if seen[s] {
				t.Fatalf("collision at base=%d i=%d", base, i)
			}
			seen[s] = true
		}
	}
	if DeriveSeed(7, 3) != DeriveSeed(7, 3) {
		t.Fatal("DeriveSeed not deterministic")
	}
	// The base+i scheme collides across neighbouring bases; the mix must not.
	if DeriveSeed(1, 1) == DeriveSeed(2, 0) {
		t.Fatal("DeriveSeed(1,1) == DeriveSeed(2,0)")
	}
}

func TestForEachStatsAndObserve(t *testing.T) {
	st, err := forEach(context.Background(), 32, 4, func(i int) error {
		time.Sleep(time.Millisecond)
		return nil
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Fatalf("Workers = %d", st.Workers)
	}
	if st.Wall <= 0 || st.Busy <= 0 {
		t.Fatalf("timings not recorded: %+v", st)
	}
	if u := st.Utilisation(); u <= 0 {
		t.Fatalf("Utilisation = %v", u)
	}
	reg := obs.NewRegistry()
	Observe(reg, "test", st)
	snap := reg.Snapshot()
	if snap.Counters[obs.Key("kernel_runs_total", "kernel=test")] != 1 {
		t.Fatalf("kernel_runs_total missing: %+v", snap.Counters)
	}
	if snap.Histograms[obs.Key("kernel_ms", "kernel=test")].Count != 1 {
		t.Fatal("kernel_ms histogram missing")
	}
	if snap.Gauges[obs.Key("kernel_workers", "kernel=test")] != 4 {
		t.Fatal("kernel_workers gauge missing")
	}
}

// TestForEachPartitionStable holds block, the partition forEach runs
// its workers over, to fixed bounds: contiguous, in order, covering
// [0, n) exactly once, the larger blocks first.
func TestForEachPartitionStable(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		want [][2]int
	}{
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{2, 4, [][2]int{{0, 1}, {1, 2}, {2, 2}, {2, 2}}},
		{0, 3, [][2]int{{0, 0}, {0, 0}, {0, 0}}},
		{8, 1, [][2]int{{0, 8}}},
	} {
		for w, want := range tc.want {
			if lo, hi := block(tc.n, tc.k, w); lo != want[0] || hi != want[1] {
				t.Fatalf("block(%d, %d, %d) = [%d,%d), want [%d,%d)", tc.n, tc.k, w, lo, hi, want[0], want[1])
			}
		}
	}
}
