package services

import (
	"slices"
	"testing"

	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// FuzzTreeAnalyze holds the TreeAnalyzer's parser, which reads caller
// text, to its reply's invariants: it never panics, every leaf yields one
// rule, a parsed tree is at least one level deep, and a named root is
// among the attributes. The seeds are J48's text for Weather and
// BreastCancer, as the J48 service's classify op returns it.
func FuzzTreeAnalyze(f *testing.F) {
	for _, d := range []*dataset.Dataset{datagen.Weather(), datagen.BreastCancer()} {
		j := classify.NewJ48()
		if err := j.Train(d); err != nil {
			f.Fatal(err)
		}
		f.Add(j.String())
	}
	f.Fuzz(func(t *testing.T, text string) {
		a, err := analyzeTreeText(text)
		if err != nil {
			return
		}
		if a.Leaves != len(a.Rules) {
			t.Fatalf("%d leaves, %d rules", a.Leaves, len(a.Rules))
		}
		if a.Depth < 1 {
			t.Fatalf("depth %d for a parsed tree", a.Depth)
		}
		if a.Root != "" && !slices.Contains(a.Attributes, a.Root) {
			t.Fatalf("root %q not among attributes %q", a.Root, a.Attributes)
		}
	})
}
