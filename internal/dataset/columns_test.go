package dataset

import (
	"math"
	"testing"
)

func twoColSchema() []*Attribute {
	return []*Attribute{
		NewNumericAttribute("x"),
		NewNominalAttribute("class", "a", "b"),
	}
}

func TestColumnsMirrorsRows(t *testing.T) {
	d := New("t", twoColSchema()...)
	d.ClassIndex = 1
	d.MustAdd(NewInstance([]float64{1.5, 0}))
	d.MustAdd(NewInstance([]float64{Missing, 1}))
	d.MustAdd(NewInstance([]float64{-3, 0}))

	cols := d.Columns()
	if len(cols) != 2 {
		t.Fatalf("got %d columns, want 2", len(cols))
	}
	if len(cols[0]) != 3 || len(cols[1]) != 3 {
		t.Fatalf("column lengths = %d,%d, want 3,3", len(cols[0]), len(cols[1]))
	}
	if cols[0][0] != 1.5 || !math.IsNaN(cols[0][1]) || cols[0][2] != -3 {
		t.Errorf("numeric column = %v", cols[0])
	}
	if cols[1][0] != 0 || cols[1][1] != 1 || cols[1][2] != 0 {
		t.Errorf("nominal column = %v", cols[1])
	}
	if !d.HasColumns() {
		t.Error("HasColumns false after Columns()")
	}
	// Cached: same backing on repeat call.
	if &d.Columns()[0][0] != &cols[0][0] {
		t.Error("Columns rebuilt despite no mutation")
	}
}

func TestColumnsInvalidatedByAdd(t *testing.T) {
	d := New("t", twoColSchema()...)
	d.MustAdd(NewInstance([]float64{1, 0}))
	_ = d.Columns()
	d.MustAdd(NewInstance([]float64{2, 1}))
	if d.HasColumns() {
		t.Fatal("column cache survived Add")
	}
	cols := d.Columns()
	if len(cols[0]) != 2 || cols[0][1] != 2 {
		t.Fatalf("rebuilt column = %v, want [1 2]", cols[0])
	}
}

func TestInvalidateColumnsAfterCellWrite(t *testing.T) {
	d := New("t", twoColSchema()...)
	d.MustAdd(NewInstance([]float64{1, 0}))
	_ = d.Columns()
	d.Instances[0].Values[0] = 42
	d.InvalidateColumns()
	if got := d.Columns()[0][0]; got != 42 {
		t.Fatalf("column sees %v after invalidate, want 42", got)
	}
}

func TestAddRowSlabRowsAreIndependent(t *testing.T) {
	d := New("t", twoColSchema()...)
	for i := 0; i < 100; i++ {
		if err := d.AddRow([]string{"1", "a"}); err != nil {
			t.Fatal(err)
		}
	}
	// Writing one row must not bleed into neighbours carved from the
	// same slab.
	d.Instances[10].Values[0] = 99
	d.Instances[10].Values[1] = 1
	for i, in := range d.Instances {
		if i == 10 {
			continue
		}
		if in.Values[0] != 1 || in.Values[1] != 0 {
			t.Fatalf("row %d corrupted: %v", i, in.Values)
		}
	}
	// Appending to a row slice must not clobber the next row (capacity
	// is capped at the row width).
	grown := append(d.Instances[20].Values, 7)
	_ = grown
	if d.Instances[21].Values[0] != 1 {
		t.Fatal("append to row 20 clobbered row 21")
	}
}

func TestFromColumnsRoundTrip(t *testing.T) {
	attrs := twoColSchema()
	cols := [][]float64{
		{1, Missing, 3},
		{0, 1, Missing},
	}
	weights := []float64{1, 2, 0.5}
	d, err := FromColumns("rt", attrs, 1, cols, weights)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumInstances() != 3 || d.ClassIndex != 1 {
		t.Fatalf("got %d rows class %d", d.NumInstances(), d.ClassIndex)
	}
	if !d.HasColumns() {
		t.Error("column-first dataset lost its columns")
	}
	// Row view mirrors the columns exactly.
	for i, in := range d.Instances {
		for j := range attrs {
			want, got := cols[j][i], in.Values[j]
			if math.IsNaN(want) != math.IsNaN(got) || (!math.IsNaN(want) && want != got) {
				t.Errorf("row %d col %d = %v, want %v", i, j, got, want)
			}
		}
		if in.Weight != weights[i] {
			t.Errorf("row %d weight = %v, want %v", i, in.Weight, weights[i])
		}
	}
}

func TestFromColumnsNilWeightsUnit(t *testing.T) {
	d, err := FromColumns("u", []*Attribute{NewNumericAttribute("x")}, -1, [][]float64{{1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range d.Instances {
		if in.Weight != 1 {
			t.Fatalf("weight = %v, want 1", in.Weight)
		}
	}
}

func TestFromColumnsValidation(t *testing.T) {
	attrs := twoColSchema()
	cases := []struct {
		name       string
		classIndex int
		cols       [][]float64
		weights    []float64
	}{
		{"column count mismatch", 1, [][]float64{{1}}, nil},
		{"ragged columns", 1, [][]float64{{1, 2}, {0}}, nil},
		{"class index out of range", 2, [][]float64{{1}, {0}}, nil},
		{"non-integral nominal", 1, [][]float64{{1}, {0.5}}, nil},
		{"nominal index out of range", 1, [][]float64{{1}, {2}}, nil},
		{"negative nominal index", 1, [][]float64{{1}, {-1}}, nil},
		{"weights length mismatch", 1, [][]float64{{1}, {0}}, []float64{1, 2}},
	}
	for _, tc := range cases {
		if _, err := FromColumns("bad", attrs, tc.classIndex, tc.cols, tc.weights); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestFromColumnsFirstError: with several defects the error names the
// first in column order (a column's length or its first invalid index,
// column by column, then the weights), though the cells are checked a
// tile of rows at a time.
func TestFromColumnsFirstError(t *testing.T) {
	attrs := []*Attribute{NewNominalAttribute("a", "x", "y"), NewNumericAttribute("b"), NewNominalAttribute("c", "x", "y")}
	col := func(bad int, v float64) []float64 {
		c := make([]float64, 200)
		if bad >= 0 {
			c[bad] = v
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		cols    [][]float64
		weights []float64
		want    string
	}{
		{"later row of an earlier column", [][]float64{col(150, 2), col(-1, 0), col(1, 0.5)}, nil,
			`dataset: row 150: invalid index 2 for attribute "a"`},
		{"index before a ragged column", [][]float64{col(70, -1), col(-1, 0), col(-1, 0)[:10]}, nil,
			`dataset: row 70: invalid index -1 for attribute "a"`},
		{"ragged before an index", [][]float64{col(-1, 0), col(-1, 0)[:10], col(3, 7)}, nil,
			`dataset: column "b" has 10 rows, column "a" has 200`},
		{"index before the weights", [][]float64{col(-1, 0), col(-1, 0), col(199, math.NaN())}, []float64{1}, "dataset: 1 weights for 200 rows"},
		{"index then weights", [][]float64{col(-1, 0), col(-1, 0), col(199, 9)}, []float64{1},
			`dataset: row 199: invalid index 9 for attribute "c"`},
	} {
		if _, err := FromColumns("bad", attrs, 0, tc.cols, tc.weights); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.name, err, tc.want)
		}
	}
}

func TestFromColumnsZeroRows(t *testing.T) {
	d, err := FromColumns("empty", twoColSchema(), 1, [][]float64{{}, {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumInstances() != 0 {
		t.Fatalf("got %d rows, want 0", d.NumInstances())
	}
}

func TestProjectSharesOneSlab(t *testing.T) {
	d := New("t", NewNumericAttribute("a"), NewNumericAttribute("b"), NewNumericAttribute("c"))
	for i := 0; i < 10; i++ {
		d.MustAdd(NewInstance([]float64{float64(i), float64(i * 2), float64(i * 3)}))
	}
	p, err := d.Project([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range p.Instances {
		if in.Values[0] != float64(i*3) || in.Values[1] != float64(i) {
			t.Fatalf("row %d = %v", i, in.Values)
		}
	}
	// Projection rows must be independent despite the shared slab.
	p.Instances[3].Values[0] = -1
	if p.Instances[2].Values[1] == -1 || p.Instances[4].Values[0] == -1 {
		t.Fatal("projection rows share storage")
	}
}

func BenchmarkAddRows(b *testing.B) {
	attrs := []*Attribute{
		NewNumericAttribute("a"), NewNumericAttribute("b"),
		NewNumericAttribute("c"), NewNumericAttribute("d"),
		NewNominalAttribute("class", "x", "y"),
	}
	row := []string{"1.5", "2.5", "3.5", "4.5", "x"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New("bench", attrs...)
		d.ClassIndex = 4
		for r := 0; r < 1000; r++ {
			if err := d.AddRow(row); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkColumnsBuild(b *testing.B) {
	d := New("bench",
		NewNumericAttribute("a"), NewNumericAttribute("b"),
		NewNumericAttribute("c"), NewNumericAttribute("d"))
	for r := 0; r < 1000; r++ {
		d.MustAdd(NewInstance([]float64{1, 2, 3, 4}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.InvalidateColumns()
		_ = d.Columns()
	}
}
