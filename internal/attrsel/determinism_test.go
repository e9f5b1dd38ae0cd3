package attrsel

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/datagen"
)

// TestSearchDeterminismAcrossProcs: the parallel package takes its worker
// count from GOMAXPROCS, and every search reduces its candidates in
// candidate order, so each of the six searches picks the same subset at
// GOMAXPROCS 1, 2 and 8 under both CfsSubset (whose pair-SU cache the
// workers share) and WrapperSubset (which cross-validates inside each
// worker). RankAttributes gives the same merits bit for bit.
func TestSearchDeterminismAcrossProcs(t *testing.T) {
	d := datagen.BreastCancer()
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	// run returns one line per search × evaluator and per ranker.
	run := func() []string {
		var out []string
		for _, search := range []string{"BestFirst", "GreedyStepwise(forward)", "GreedyStepwise(backward)",
			"GeneticSearch", "RandomSearch", "Exhaustive"} {
			for _, eval := range []string{"CfsSubset", "WrapperSubset"} {
				s, err := NewSearch(search)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewSubsetEvaluator(eval)
				if err != nil {
					t.Fatal(err)
				}
				cols, err := s.Search(e, d)
				if err != nil {
					t.Fatalf("%s/%s: %v", eval, search, err)
				}
				out = append(out, fmt.Sprintf("%s/%s %v", eval, search, cols))
			}
		}
		for _, name := range []string{"InfoGain", "GainRatio", "SymmetricalUncertainty",
			"ChiSquared", "OneRAccuracy", "Correlation", "ReliefF"} {
			ev, err := NewAttributeEvaluator(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := RankAttributes(ev, d)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bits := make([]uint64, len(r.Merits))
			for i, m := range r.Merits {
				bits[i] = math.Float64bits(m)
			}
			out = append(out, fmt.Sprintf("%s/Ranker %v %x", name, r.Columns, bits))
		}
		return out
	}

	runtime.GOMAXPROCS(1)
	base := run()
	for _, p := range []int{2, 8} {
		runtime.GOMAXPROCS(p)
		got := run()
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("GOMAXPROCS %d: %s, want %s", p, got[i], base[i])
			}
		}
	}
}
