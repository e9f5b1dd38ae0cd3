package attrsel

import (
	"context"
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
				cols, err := s.Search(e, d)
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
			r, err := RankAttributes(ev, d)
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
