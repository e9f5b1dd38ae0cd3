package attrsel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/parallel"
)

// TestSearchDeterminismAcrossProcs: the parallel package sizes its helper
// budget from GOMAXPROCS, and every search reduces its candidates in
// candidate order, so each of the six searches picks the same subset at
// GOMAXPROCS 1, 2 and 8, and under contention, with both CfsSubset (whose
// pair-SU cache the workers share) and WrapperSubset (which
// cross-validates inside each worker). RankAttributes gives the same
// merits bit for bit.
func TestSearchDeterminismAcrossProcs(t *testing.T) {
	d := datagen.BreastCancer()
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	// run returns one line per search × evaluator and per ranker.
	run := func() ([]string, error) {
		var out []string
		for _, search := range []string{"BestFirst", "GreedyStepwise(forward)", "GreedyStepwise(backward)",
			"GeneticSearch", "RandomSearch", "Exhaustive"} {
			for _, eval := range []string{"CfsSubset", "WrapperSubset"} {
				s, err := NewSearch(search)
				if err != nil {
					return nil, err
				}
				e, err := NewSubsetEvaluator(eval)
				if err != nil {
					return nil, err
				}
				cols, err := s.Search(context.Background(), e, d)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", eval, search, err)
				}
				out = append(out, fmt.Sprintf("%s/%s %v", eval, search, cols))
			}
		}
		for _, name := range []string{"InfoGain", "GainRatio", "SymmetricalUncertainty",
			"ChiSquared", "OneRAccuracy", "Correlation", "ReliefF"} {
			ev, err := NewAttributeEvaluator(name)
			if err != nil {
				return nil, err
			}
			r, err := RankAttributes(context.Background(), ev, d)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			bits := make([]uint64, len(r.Merits))
			for i, m := range r.Merits {
				bits[i] = math.Float64bits(m)
			}
			out = append(out, fmt.Sprintf("%s/Ranker %v %x", name, r.Columns, bits))
		}
		return out, nil
	}

	runtime.GOMAXPROCS(1)
	base, err := run()
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, got []string, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("%s: %s, want %s", label, got[i], base[i])
			}
		}
	}
	for _, p := range []int{2, 8} {
		runtime.GOMAXPROCS(p)
		got, err := run()
		check(fmt.Sprintf("GOMAXPROCS %d", p), got, err)
	}

	// Four searches side by side at GOMAXPROCS 2 share one helper token,
	// so their scans mix inline blocks with helper blocks.
	runtime.GOMAXPROCS(2)
	got := make([][]string, 4)
	err = parallel.ForEach(context.Background(), len(got), func(i int) error {
		var err error
		got[i], err = run()
		return err
	})
	for i := range got {
		check(fmt.Sprintf("contended copy %d", i), got[i], err)
	}
}

// countingEval is CfsSubset that counts its evaluations and cancels its
// search's context on evaluation number at.
type countingEval struct {
	CFS
	at     int
	cancel context.CancelFunc
	calls  int
}

func (e *countingEval) EvaluateSubset(ctx context.Context, cols []int) (float64, error) {
	e.calls++
	if e.calls == e.at {
		e.cancel()
	}
	return e.CFS.EvaluateSubset(ctx, cols)
}

// TestSearchStopsWhenCancelled: a search whose context is done evaluates
// no further subset and returns the context's error, whether the context
// was done before the search began or ended between two evaluations (a
// request deadline passing mid-search). At GOMAXPROCS 1 every scan runs
// inline, so the count is exact.
func TestSearchStopsWhenCancelled(t *testing.T) {
	d := datagen.BreastCancer()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, name := range []string{"BestFirst", "GreedyStepwise(forward)", "GreedyStepwise(backward)",
		"GeneticSearch", "RandomSearch", "Exhaustive"} {
		s, err := NewSearch(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []int{0, 3} {
			ctx, cancel := context.WithCancel(context.Background())
			if at == 0 {
				cancel()
			}
			e := &countingEval{at: at, cancel: cancel}
			_, err := s.Search(ctx, e, d)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s cancelled at evaluation %d: error %v, want %v", name, at, err, context.Canceled)
			}
			if e.calls != at {
				t.Errorf("%s cancelled at evaluation %d: %d evaluations", name, at, e.calls)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev, err := NewAttributeEvaluator("InfoGain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RankAttributes(ctx, ev, d); !errors.Is(err, context.Canceled) {
		t.Errorf("RankAttributes under a cancelled context: error %v, want %v", err, context.Canceled)
	}
}
