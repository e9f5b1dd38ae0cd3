package parallel

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// setProcs sets GOMAXPROCS to p, restoring the original when t ends. The
// budget is GOMAXPROCS − 1, so this is how a test sizes it.
func setProcs(t *testing.T, p int) {
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// goid is the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		setProcs(t, procs)
		n := 57
		hits := make([]int32, n)
		err := ForEach(context.Background(), n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS %d: index %d hit %d times", procs, i, h)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	setProcs(t, 4)
	if err := ForEach(context.Background(), 0, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestErrorWins(t *testing.T) {
	setProcs(t, 8)
	errLow := errors.New("low")
	errHigh := errors.New("high")
	// Run repeatedly: with racing workers the lowest failing index must
	// still win every time.
	for trial := 0; trial < 20; trial++ {
		err := ForEach(context.Background(), 64, func(i int) error {
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
	setProcs(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 1000, func(i int) error {
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
	setProcs(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := ForEach(ctx, 100, func(i int) error {
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

// TestSequentialPathAllocatesNothing: with no helper to start, ForEach
// is a plain loop.
func TestSequentialPathAllocatesNothing(t *testing.T) {
	setProcs(t, 1)
	var sum int
	fn := func(i int) error { sum += i; return nil }
	if n := testing.AllocsPerRun(100, func() { _ = ForEach(context.Background(), 64, fn) }); n != 0 {
		t.Fatalf("ForEach at GOMAXPROCS 1 allocated %v times per call", n)
	}
}

// TestNestedForEachStaysInBudget: a kernel inside a kernel shares the one
// budget, so at GOMAXPROCS 4 no more than 4 fn calls ever run at once.
func TestNestedForEachStaysInBudget(t *testing.T) {
	setProcs(t, 4)
	var running, peak atomic.Int32
	leaf := func(int) error {
		r := running.Add(1)
		for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond)
		running.Add(-1)
		return nil
	}
	err := ForEach(context.Background(), 8, func(int) error {
		return ForEach(context.Background(), 8, leaf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("peak of %d concurrent fn calls at GOMAXPROCS 4", p)
	}
	if h := held.Load(); h != 0 {
		t.Fatalf("%d tokens held after the nested run", h)
	}
}

// TestForEachInlineWhenBudgetTaken: with every token held elsewhere, the
// caller runs the whole range itself.
func TestForEachInlineWhenBudgetTaken(t *testing.T) {
	setProcs(t, 4)
	if got := acquire(3, 3); got != 3 {
		t.Fatalf("acquire took %d of 3 free tokens", got)
	}
	defer held.Add(-3)
	caller := goid()
	var next int
	err := ForEach(context.Background(), 32, func(i int) error {
		if g := goid(); g != caller {
			t.Errorf("item %d ran on goroutine %d, not the caller's %d", i, g, caller)
		}
		if i != next {
			t.Errorf("item %d ran out of order, want %d", i, next)
		}
		next++
		return nil
	})
	if err != nil || next != 32 {
		t.Fatalf("err %v after %d items", err, next)
	}
}

// TestBudgetRestored: helpers hand their tokens back however a run ends —
// an error, a cancellation, or a panic in the caller's own block.
func TestBudgetRestored(t *testing.T) {
	setProcs(t, 4)
	boom := errors.New("boom")
	if err := ForEach(context.Background(), 40, func(i int) error {
		if i%7 == 3 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("error run: %v", err)
	}
	if h := held.Load(); h != 0 {
		t.Fatalf("%d tokens held after an error", h)
	}

	ctx, cancel := context.WithCancel(context.Background())
	if err := ForEach(ctx, 40, func(i int) error {
		if i == 20 {
			cancel()
		}
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
	if h := held.Load(); h != 0 {
		t.Fatalf("%d tokens held after a cancellation", h)
	}

	// The helpers outlive the panicking call, so wait for them to finish.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("block 0's panic did not reach the caller")
			}
		}()
		_ = ForEach(context.Background(), 40, func(i int) error {
			if i == 0 {
				panic("kernel bug")
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}()
	for deadline := time.Now().Add(5 * time.Second); held.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d tokens held after a panic in block 0", held.Load())
		}
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

// TestForEachPartitionStable holds block, the partition ForEach runs its
// workers over, to fixed bounds: contiguous, in order, covering [0, n)
// exactly once, the larger blocks first.
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
