package filter

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

func TestDiscretizeEqualWidth(t *testing.T) {
	d := datagen.WeatherNumeric()
	f := &Discretize{Bins: 4}
	out, err := f.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	// temperature and humidity become nominal; outlook/windy/play untouched.
	if !out.Attrs[1].IsNominal() || !out.Attrs[2].IsNominal() {
		t.Fatal("numeric columns not discretised")
	}
	if out.Attrs[1].NumValues() != 4 {
		t.Fatalf("bins = %d", out.Attrs[1].NumValues())
	}
	if !out.Attrs[0].IsNominal() || out.Attrs[0].NumValues() != 3 {
		t.Fatal("outlook disturbed")
	}
	// The original dataset must be untouched.
	if !d.Attrs[1].IsNumeric() {
		t.Fatal("input mutated")
	}
	// Values must be valid bin indices.
	for _, in := range out.Instances {
		v := in.Values[1]
		if dataset.IsMissing(v) {
			continue
		}
		if v < 0 || v > 3 || v != math.Trunc(v) {
			t.Fatalf("bad bin %v", v)
		}
	}
	// A discretised dataset is trainable by nominal-only learners.
	j := classify.NewJ48()
	if err := j.Train(out); err != nil {
		t.Fatal(err)
	}
}

func TestDiscretizeEqualFrequency(t *testing.T) {
	d := dataset.New("u", dataset.NewNumericAttribute("x"),
		dataset.NewNominalAttribute("c", "a", "b"))
	d.ClassIndex = 1
	for i := 0; i < 100; i++ {
		d.MustAdd(dataset.NewInstance([]float64{float64(i), float64(i % 2)}))
	}
	f := &Discretize{Bins: 4, EqualFrequency: true}
	out, err := f.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	counts := out.ValueCounts(0)
	for b, n := range counts {
		if n != 25 {
			t.Fatalf("bin %d holds %v instances, want 25 (counts %v)", b, n, counts)
		}
	}
}

func TestDiscretizeColumnValidation(t *testing.T) {
	d := datagen.WeatherNumeric()
	if _, err := (&Discretize{Columns: []int{99}}).Apply(d); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := (&Discretize{Columns: []int{0}}).Apply(d); err == nil {
		t.Fatal("nominal column accepted")
	}
}

func TestNormalize(t *testing.T) {
	d := datagen.WeatherNumeric()
	out, err := Normalize{}.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{1, 2} {
		min, max := math.Inf(1), math.Inf(-1)
		for _, in := range out.Instances {
			v := in.Values[c]
			min, max = math.Min(min, v), math.Max(max, v)
		}
		if math.Abs(min) > 1e-12 || math.Abs(max-1) > 1e-12 {
			t.Fatalf("column %d range [%v,%v]", c, min, max)
		}
	}
}

func TestStandardize(t *testing.T) {
	d := datagen.IrisLike(30, 3)
	out, err := Standardize{}.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		var sum, sumSq float64
		for _, in := range out.Instances {
			sum += in.Values[c]
			sumSq += in.Values[c] * in.Values[c]
		}
		n := float64(out.NumInstances())
		mean := sum / n
		sd := math.Sqrt(sumSq/n - mean*mean)
		if math.Abs(mean) > 1e-9 || math.Abs(sd-1) > 1e-9 {
			t.Fatalf("column %d: mean %v sd %v", c, mean, sd)
		}
	}
}

func TestReplaceMissing(t *testing.T) {
	d := datagen.BreastCancer() // has 9 missing cells
	out, err := ReplaceMissing{}.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := dataset.Summarize(out).MissingCells; got != 0 {
		t.Fatalf("still %d missing cells", got)
	}
	// node-caps missing cells become the mode ("no").
	_, col := out.AttributeByName("node-caps")
	counts := out.ValueCounts(col)
	orig := d.ValueCounts(col)
	if counts[1] != orig[1]+8 {
		t.Fatalf("mode fill wrong: %v vs %v", counts, orig)
	}
}

func TestRemoveAndKeep(t *testing.T) {
	d := datagen.BreastCancer()
	out, err := RemoveAttributes{Names: []string{"breast", "breast-quad"}}.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumAttributes() != 8 {
		t.Fatalf("attrs after remove = %d", out.NumAttributes())
	}
	if out.ClassAttribute().Name != "Class" {
		t.Fatal("class lost")
	}
	if _, err := (RemoveAttributes{Names: []string{"Class"}}).Apply(d); err == nil {
		t.Fatal("class removal accepted")
	}
	if _, err := (RemoveAttributes{Names: []string{"ghost"}}).Apply(d); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	kept, err := KeepAttributes{Names: []string{"node-caps", "deg-malig"}}.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if kept.NumAttributes() != 3 { // two named + class
		t.Fatalf("attrs after keep = %d", kept.NumAttributes())
	}
	if kept.ClassAttribute() == nil || kept.ClassAttribute().Name != "Class" {
		t.Fatal("class not retained")
	}
	// Keeping only the signal attributes preserves J48 accuracy.
	j := classify.NewJ48()
	if err := j.Train(kept); err != nil {
		t.Fatal(err)
	}
	if j.Tree().AttrName != "node-caps" {
		t.Fatalf("projected root = %q", j.Tree().AttrName)
	}
}

func TestChain(t *testing.T) {
	d := datagen.WeatherNumeric()
	c := chain{ReplaceMissing{}, Normalize{}, &Discretize{Bins: 3}}
	if c.Name() != "ReplaceMissingValues->Normalize->Discretize" {
		t.Fatalf("chain name = %q", c.Name())
	}
	out, err := c.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Attrs[1].IsNominal() {
		t.Fatal("chain did not discretise")
	}
	// Chain failure propagates with context.
	bad := chain{RemoveAttributes{Names: []string{"ghost"}}}
	if _, err := bad.Apply(d); err == nil {
		t.Fatal("failing chain succeeded")
	}
}

// TestFilterPropertyShapePreserved: every filter keeps the instance count
// and never invents missing values (except Discretize keeping them).
func TestFilterPropertyShapePreserved(t *testing.T) {
	f := func(seed int64) bool {
		d := datagen.GaussianClusters(2, 50, 3, 4, seed)
		for _, flt := range []Filter{Normalize{}, Standardize{}, ReplaceMissing{}, &Discretize{Bins: 5}} {
			out, err := flt.Apply(d)
			if err != nil {
				return false
			}
			if out.NumInstances() != d.NumInstances() || out.NumAttributes() != d.NumAttributes() {
				return false
			}
			if dataset.Summarize(out).MissingCells > dataset.Summarize(d).MissingCells {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
