package attrsel

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

func TestRankersPutNodeCapsFirst(t *testing.T) {
	// On the breast-cancer replica node-caps carries the most class signal;
	// every information-theoretic ranker must place it (or deg-malig, its
	// conditional partner) at the top.
	d := datagen.BreastCancer()
	for _, name := range []string{"InfoGain", "GainRatio", "SymmetricalUncertainty", "ChiSquared", "OneRAccuracy"} {
		ev, err := NewAttributeEvaluator(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RankAttributes(context.Background(), ev, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Names) != 9 {
			t.Fatalf("%s ranked %d attributes, want 9", name, len(r.Names))
		}
		if top := r.Names[0]; top != "node-caps" && top != "deg-malig" {
			t.Fatalf("%s top attribute = %q (merits %v)", name, top, r.Merits[:3])
		}
		for i := 1; i < len(r.Merits); i++ {
			if r.Merits[i] > r.Merits[i-1]+1e-12 {
				t.Fatalf("%s ranking not descending: %v", name, r.Merits)
			}
		}
	}
}

func TestReliefFFindsSignal(t *testing.T) {
	d := datagen.BreastCancer()
	ev := &reliefF{}
	r, err := RankAttributes(context.Background(), ev, d)
	if err != nil {
		t.Fatal(err)
	}
	// One of the two Figure-4 signal attributes must lead the ranking, and
	// the near-noise "breast" attribute must not.
	if top := r.Names[0]; top != "node-caps" && top != "deg-malig" {
		t.Fatalf("ReliefF top attribute = %q (ranking %v)", top, r.Names)
	}
	if r.Names[len(r.Names)-1] == "node-caps" || r.Names[len(r.Names)-1] == "deg-malig" {
		t.Fatalf("signal attribute ranked last: %v", r.Names)
	}
}

func TestCorrelationNumeric(t *testing.T) {
	d := datagen.GaussianClusters(2, 200, 2, 8, 3)
	ev := &correlation{}
	r, err := RankAttributes(context.Background(), ev, d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Merits[0] < 0.8 {
		t.Fatalf("separating feature correlation = %v", r.Merits[0])
	}
}

// TestGeneticSearchSelectsNodeCaps is experiment E9: §5.3 says "the
// attribute selection process can also be automated through the use of a
// genetic search service".
func TestGeneticSearchSelectsNodeCaps(t *testing.T) {
	d := datagen.BreastCancer()
	ev := &CFS{}
	cols, err := GeneticSearch{Population: 24, Generations: 15, Seed: 7}.Search(context.Background(), ev, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) == 0 {
		t.Fatal("genetic search selected nothing")
	}
	names := map[string]bool{}
	for _, c := range cols {
		names[d.Attrs[c].Name] = true
	}
	if !names["node-caps"] {
		t.Fatalf("genetic search missed node-caps: %v", names)
	}
}

func TestSearchesAgreeOnStrongSignal(t *testing.T) {
	d := datagen.BreastCancer()
	for _, s := range []Search{greedyForward{}, BestFirst{MaxStale: 5},
		GeneticSearch{Seed: 3}, randomSearch{}} {
		ev := &CFS{}
		cols, err := s.Search(context.Background(), ev, d)
		if err != nil {
			t.Fatalf("%T: %v", s, err)
		}
		found := false
		for _, c := range cols {
			if d.Attrs[c].Name == "node-caps" {
				found = true
			}
		}
		if !found {
			var names []string
			for _, c := range cols {
				names = append(names, d.Attrs[c].Name)
			}
			t.Fatalf("%T selected %v without node-caps", s, names)
		}
	}
}

func TestGreedyBackwardKeepsMerit(t *testing.T) {
	d := datagen.BreastCancer()
	ev := &CFS{}
	cols, err := greedyBackward{}.Search(context.Background(), ev, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) == 0 || len(cols) > 9 {
		t.Fatalf("backward selected %d columns", len(cols))
	}
}

func TestExhaustiveOnSmallData(t *testing.T) {
	d := datagen.Weather()
	ev := &CFS{}
	cols, err := exhaustive{}.Search(context.Background(), ev, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) == 0 {
		t.Fatal("exhaustive selected nothing")
	}
	// Exhaustive is optimal: no other subset scores higher.
	if err := ev.Prepare(d); err != nil {
		t.Fatal(err)
	}
	best, err := ev.EvaluateSubset(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 1; mask < 16; mask++ {
		var set []int
		for i := 0; i < 4; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
			}
		}
		m, err := ev.EvaluateSubset(context.Background(), set)
		if err != nil {
			t.Fatal(err)
		}
		if m > best+1e-9 {
			t.Fatalf("exhaustive missed better subset %v (%v > %v)", set, m, best)
		}
	}
}

func TestExhaustiveGuardsWidth(t *testing.T) {
	d := datagen.RandomNominal(10, 25, 2, 0, 1)
	if _, err := (exhaustive{}).Search(context.Background(), &consistency{}, d); err == nil {
		t.Fatal("25-attribute exhaustive search accepted")
	}
}

func TestWrapperEvaluator(t *testing.T) {
	d := datagen.BreastCancer()
	w := &wrapper{}
	if err := w.Prepare(d); err != nil {
		t.Fatal(err)
	}
	// node-caps alone should beat breast alone.
	strong, err := w.EvaluateSubset(context.Background(), []int{4})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := w.EvaluateSubset(context.Background(), []int{6})
	if err != nil {
		t.Fatal(err)
	}
	if strong <= weak {
		t.Fatalf("wrapper: node-caps %v <= breast %v", strong, weak)
	}
}

func TestConsistencyEvaluator(t *testing.T) {
	d := datagen.ContactLenses()
	c := &consistency{}
	if err := c.Prepare(d); err != nil {
		t.Fatal(err)
	}
	// The full attribute set determines the class exactly.
	full, err := c.EvaluateSubset(context.Background(), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if full != 1 {
		t.Fatalf("full-set consistency = %v, want 1", full)
	}
	// A single weak attribute cannot be fully consistent.
	one, _ := c.EvaluateSubset(context.Background(), []int{0})
	if one >= full {
		t.Fatalf("single-attribute consistency %v >= full %v", one, full)
	}
}

func TestApproachesCount(t *testing.T) {
	// The paper claims 20 approaches; the toolkit must offer at least that.
	got := Approaches()
	if len(got) < 20 {
		t.Fatalf("only %d approaches: %v", len(got), got)
	}
	seen := map[string]bool{}
	for _, a := range got {
		if seen[a] {
			t.Fatalf("duplicate approach %q", a)
		}
		seen[a] = true
	}
	if !seen["CfsSubset/GeneticSearch"] {
		t.Fatal("genetic search approach missing")
	}
}

func TestFactories(t *testing.T) {
	for _, n := range []string{"CfsSubset", "ConsistencySubset", "WrapperSubset",
		"InfoGain+mean", "GainRatio+mean", "SymmetricalUncertainty+mean", "ChiSquared+mean"} {
		if _, err := NewSubsetEvaluator(n); err != nil {
			t.Errorf("NewSubsetEvaluator(%s): %v", n, err)
		}
	}
	for _, n := range []string{"InfoGain", "GainRatio", "SymmetricalUncertainty",
		"ChiSquared", "OneRAccuracy", "Correlation", "ReliefF"} {
		if _, err := NewAttributeEvaluator(n); err != nil {
			t.Errorf("NewAttributeEvaluator(%s): %v", n, err)
		}
	}
	for _, n := range []string{"BestFirst", "GreedyStepwise(forward)", "GreedyStepwise(backward)",
		"GeneticSearch", "RandomSearch", "Exhaustive"} {
		if _, err := NewSearch(n); err != nil {
			t.Errorf("NewSearch(%s): %v", n, err)
		}
	}
	if _, err := NewSubsetEvaluator("nope"); err == nil {
		t.Fatal("unknown evaluator constructed")
	}
	if _, err := NewSearch("nope"); err == nil {
		t.Fatal("unknown search constructed")
	}
}

func TestRankerAdapterPrefersSmallSubsets(t *testing.T) {
	d := datagen.BreastCancer()
	ra := &rankerAdapter{Inner: &infoGain{}}
	if err := ra.Prepare(d); err != nil {
		t.Fatal(err)
	}
	// Adding a noise attribute to {node-caps} should lower the mean merit.
	strong, _ := ra.EvaluateSubset(context.Background(), []int{4})
	mixed, _ := ra.EvaluateSubset(context.Background(), []int{4, 6})
	if mixed >= strong {
		t.Fatalf("mean-merit adapter: %v >= %v", mixed, strong)
	}
}

func TestEvaluatorRequiresNominalClass(t *testing.T) {
	d := dataset.New("r", dataset.NewNumericAttribute("x"), dataset.NewNumericAttribute("y"))
	d.ClassIndex = 1
	d.MustAdd(dataset.NewInstance([]float64{1, 2}))
	ev := &infoGain{}
	if err := ev.Prepare(d); err != nil {
		t.Skip("Prepare rejects early")
	}
	if _, err := ev.Evaluate(0); err == nil {
		t.Fatal("numeric class accepted by contingency builder")
	}
}

func TestNamesAreStable(t *testing.T) {
	// The constructor names are the public identifiers the services and
	// Approaches use; pin each to the implementation it stands for,
	// down to a mean-merit adapter's inner ranker.
	for n, want := range map[string]AttributeEvaluator{
		"InfoGain":               &infoGain{},
		"GainRatio":              &gainRatio{},
		"SymmetricalUncertainty": &symmetricalUncertainty{},
		"ChiSquared":             &chiSquared{},
		"OneRAccuracy":           &oneRAccuracy{},
		"Correlation":            &correlation{},
		"ReliefF":                &reliefF{},
	} {
		if got, err := NewAttributeEvaluator(n); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("attribute evaluator %q = %#v (err %v), want %#v", n, got, err, want)
		}
	}
	for n, want := range map[string]SubsetEvaluator{
		"CfsSubset":                   &CFS{},
		"ConsistencySubset":           &consistency{},
		"WrapperSubset":               &wrapper{},
		"InfoGain+mean":               &rankerAdapter{Inner: &infoGain{}},
		"GainRatio+mean":              &rankerAdapter{Inner: &gainRatio{}},
		"SymmetricalUncertainty+mean": &rankerAdapter{Inner: &symmetricalUncertainty{}},
		"ChiSquared+mean":             &rankerAdapter{Inner: &chiSquared{}},
	} {
		if got, err := NewSubsetEvaluator(n); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("subset evaluator %q = %#v (err %v), want %#v", n, got, err, want)
		}
	}
	for n, want := range map[string]Search{
		"BestFirst":                BestFirst{},
		"GreedyStepwise(forward)":  greedyForward{},
		"GreedyStepwise(backward)": greedyBackward{},
		"GeneticSearch":            GeneticSearch{},
		"RandomSearch":             randomSearch{},
		"Exhaustive":               exhaustive{},
	} {
		if got, err := NewSearch(n); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("search %q = %#v (err %v), want %#v", n, got, err, want)
		}
	}
}

func TestEvaluatorsOnNumericData(t *testing.T) {
	// The contingency builder discretises numerics into ten bins; the
	// separating feature of a Gaussian pair must outrank pure noise.
	d := datagen.GaussianClusters(2, 200, 3, 8, 31)
	for _, name := range []string{"InfoGain", "GainRatio", "SymmetricalUncertainty", "ChiSquared"} {
		ev, err := NewAttributeEvaluator(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RankAttributes(context.Background(), ev, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Merits[0] <= 0 {
			t.Fatalf("%s: top merit %v", name, r.Merits[0])
		}
	}
}

func TestWrapperDefaultFactory(t *testing.T) {
	d := datagen.Weather()
	w := &wrapper{}
	if err := w.Prepare(d); err != nil {
		t.Fatal(err)
	}
	m, err := w.EvaluateSubset(context.Background(), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m <= 0 || m > 1 {
		t.Fatalf("wrapper merit = %v", m)
	}
	if m2, _ := w.EvaluateSubset(context.Background(), nil); m2 != 0 {
		t.Fatalf("empty subset merit = %v", m2)
	}
}
