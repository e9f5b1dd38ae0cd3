package filter

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// batchFilterData builds a mixed numeric/nominal dataset with missing
// cells, nominal class last.
func batchFilterData(t *testing.T, rows int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New("batchfilter",
		dataset.NewNumericAttribute("x0"),
		dataset.NewNumericAttribute("x1"),
		dataset.NewNominalAttribute("colour", "red", "green", "blue"),
		dataset.NewNumericAttribute("x2"),
		dataset.NewNominalAttribute("class", "yes", "no"),
	)
	d.ClassIndex = 4
	for i := 0; i < rows; i++ {
		vals := []float64{
			rng.NormFloat64() * 10,
			5 + rng.Float64()*3,
			float64(rng.Intn(3)),
			float64(rng.Intn(100)),
			float64(rng.Intn(2)),
		}
		for j := 0; j < 4; j++ {
			if rng.Intn(9) == 0 {
				vals[j] = dataset.Missing
			}
		}
		if err := d.Add(dataset.NewInstance(vals)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// assertDatasetsBitIdentical compares schema, class index, every cell
// (Float64bits) and every weight.
func assertDatasetsBitIdentical(t *testing.T, name string, want, got *dataset.Dataset) {
	t.Helper()
	if got.NumAttributes() != want.NumAttributes() {
		t.Fatalf("%s: %d attrs, want %d", name, got.NumAttributes(), want.NumAttributes())
	}
	for c := range want.Attrs {
		wa, ga := want.Attrs[c], got.Attrs[c]
		if wa.Name != ga.Name || wa.IsNumeric() != ga.IsNumeric() || wa.NumValues() != ga.NumValues() {
			t.Fatalf("%s: attr %d mismatch: %+v vs %+v", name, c, ga, wa)
		}
		for v := 0; v < wa.NumValues(); v++ {
			if wa.Value(v) != ga.Value(v) {
				t.Fatalf("%s: attr %d value %d: %q vs %q", name, c, v, ga.Value(v), wa.Value(v))
			}
		}
	}
	if got.ClassIndex != want.ClassIndex {
		t.Fatalf("%s: class index %d, want %d", name, got.ClassIndex, want.ClassIndex)
	}
	if got.NumInstances() != want.NumInstances() {
		t.Fatalf("%s: %d rows, want %d", name, got.NumInstances(), want.NumInstances())
	}
	for i := range want.Instances {
		wi, gi := want.Instances[i], got.Instances[i]
		if wi.Weight != gi.Weight {
			t.Fatalf("%s row %d: weight %v, want %v", name, i, gi.Weight, wi.Weight)
		}
		for c := range wi.Values {
			if math.Float64bits(gi.Values[c]) != math.Float64bits(wi.Values[c]) {
				t.Fatalf("%s row %d col %d: %v, want %v", name, i, c, gi.Values[c], wi.Values[c])
			}
		}
	}
}

// sweepFilters is every filter configuration the batch contract covers.
func sweepFilters() []Filter {
	return []Filter{
		Normalize{},
		Standardize{},
		ReplaceMissing{},
		&Discretize{Bins: 4},
		&Discretize{Bins: 5, EqualFrequency: true},
		&Discretize{Bins: 3, Columns: []int{0, 3}},
		RemoveAttributes{Names: []string{"x1"}},
		KeepAttributes{Names: []string{"x0", "colour"}},
		chain{ReplaceMissing{}, Normalize{}, &Discretize{Bins: 4}},
		chain{Standardize{}, RemoveAttributes{Names: []string{"colour"}}},
	}
}

// TestBatchMatchesRowPathAllFilters holds every filter to the same output
// on a row-built input and on its column-first rebuild (the shape a dmb1
// decode produces). The golden digests pin what that output is.
func TestBatchMatchesRowPathAllFilters(t *testing.T) {
	d := batchFilterData(t, 80, 3)
	cd, err := dataset.FromColumns(d.Relation, d.Attrs, d.ClassIndex, d.Columns(), d.WeightsSlice())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sweepFilters() {
		want, err := f.Apply(d)
		if err != nil {
			t.Fatalf("%s (rows-backed): %v", f.Name(), err)
		}
		got, err := f.Apply(cd)
		if err != nil {
			t.Fatalf("%s (columns-backed): %v", f.Name(), err)
		}
		assertDatasetsBitIdentical(t, f.Name(), want, got)
	}
}

// cellBits snapshots every cell and weight of d, through both its row
// view and its column view.
func cellBits(d *dataset.Dataset) []uint64 {
	var out []uint64
	for _, in := range d.Instances {
		for _, v := range in.Values {
			out = append(out, math.Float64bits(v))
		}
		out = append(out, math.Float64bits(in.Weight))
	}
	for _, col := range d.Columns() {
		for _, v := range col {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestBatchDoesNotMutateInput pins the no-mutation contract: after every
// filter and chain has run, the input's schema, class index, row count,
// weights and cells are bit-for-bit what they were, through both views,
// on row-backed and column-backed inputs.
func TestBatchDoesNotMutateInput(t *testing.T) {
	d := batchFilterData(t, 30, 9)
	cd, err := dataset.FromColumns(d.Relation, d.Attrs, d.ClassIndex, d.ColumnsCopy(), d.WeightsSlice())
	if err != nil {
		t.Fatal(err)
	}
	for backing, in := range map[string]*dataset.Dataset{"rows": d, "columns": cd} {
		snapshot := in.Clone()
		before := cellBits(in)
		for _, f := range sweepFilters() {
			if _, err := f.Apply(in); err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			assertDatasetsBitIdentical(t, f.Name()+"/"+backing+" input", snapshot, in)
			after := cellBits(in)
			if len(after) != len(before) {
				t.Fatalf("%s changed the size of its %s-backed input", f.Name(), backing)
			}
			for i := range before {
				if after[i] != before[i] {
					t.Fatalf("%s mutated its %s-backed input (cell %d)", f.Name(), backing, i)
				}
			}
		}
	}
}

// TestBatchErrorsMatchRowPath pins that invalid configurations fail
// through Apply and ApplyColumns alike.
func TestBatchErrorsMatchRowPath(t *testing.T) {
	d := batchFilterData(t, 10, 5)
	for _, f := range []Filter{
		&Discretize{Bins: 3, Columns: []int{99}},
		&Discretize{Bins: 3, Columns: []int{2}}, // nominal target
		RemoveAttributes{Names: []string{"ghost"}},
		RemoveAttributes{Names: []string{"class"}},
		KeepAttributes{Names: []string{"ghost"}},
	} {
		if _, err := f.Apply(d); err == nil {
			t.Fatalf("%s: Apply accepted invalid config", f.Name())
		}
		if _, err := ApplyColumns(f, d); err == nil {
			t.Fatalf("%s: ApplyColumns accepted invalid config", f.Name())
		}
	}
}

// TestChainBatchUsesColumnsEndToEnd: a chain ending in a schema change
// hands back a column-backed dataset, ready for the wire codec without a
// transpose.
func TestChainBatchUsesColumnsEndToEnd(t *testing.T) {
	d := batchFilterData(t, 40, 17)
	chain := chain{ReplaceMissing{}, Normalize{}, &Discretize{Bins: 3}}
	got, err := chain.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasColumns() {
		t.Fatal("chain output is not column-backed")
	}
	for c, a := range got.Attrs {
		if c != got.ClassIndex && c != 2 && !a.IsNominal() {
			t.Fatalf("col %d still numeric after discretize", c)
		}
	}
}
