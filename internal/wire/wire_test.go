package wire

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// randomDataset builds a random schema and fill for property testing.
func randomDataset(rng *rand.Rand, rows int) *dataset.Dataset {
	attrCount := 1 + rng.Intn(6)
	attrs := make([]*dataset.Attribute, attrCount)
	for j := range attrs {
		if rng.Intn(2) == 0 {
			attrs[j] = dataset.NewNumericAttribute(fmt.Sprintf("num%d", j))
		} else {
			labels := make([]string, 2+rng.Intn(4))
			for l := range labels {
				labels[l] = fmt.Sprintf("v%d_%d", j, l)
			}
			attrs[j] = dataset.NewNominalAttribute(fmt.Sprintf("nom%d", j), labels...)
		}
	}
	classIndex := -1
	for j, a := range attrs {
		if a.IsNominal() {
			classIndex = j
			break
		}
	}
	cols := make([][]float64, attrCount)
	for j, a := range attrs {
		col := make([]float64, rows)
		for i := range col {
			switch {
			case rng.Intn(10) == 0:
				col[i] = dataset.Missing
			case a.IsNumeric():
				col[i] = rng.NormFloat64() * 100
			default:
				col[i] = float64(rng.Intn(a.NumValues()))
			}
		}
		cols[j] = col
	}
	var weights []float64
	if rng.Intn(2) == 0 {
		weights = make([]float64, rows)
		for i := range weights {
			weights[i] = 0.5 + rng.Float64()
		}
	}
	d, err := dataset.FromColumns(fmt.Sprintf("rand-%d", rng.Int()), attrs, classIndex, cols, weights)
	if err != nil {
		panic(err)
	}
	return d
}

func assertEqualDatasets(t *testing.T, want, got *dataset.Dataset) {
	t.Helper()
	if got.Relation != want.Relation {
		t.Fatalf("relation = %q, want %q", got.Relation, want.Relation)
	}
	if got.ClassIndex != want.ClassIndex {
		t.Fatalf("classIndex = %d, want %d", got.ClassIndex, want.ClassIndex)
	}
	if got.NumAttributes() != want.NumAttributes() {
		t.Fatalf("%d attributes, want %d", got.NumAttributes(), want.NumAttributes())
	}
	for j := range want.Attrs {
		wa, ga := want.Attrs[j], got.Attrs[j]
		if ga.Name != wa.Name || ga.Kind != wa.Kind || ga.NumValues() != wa.NumValues() {
			t.Fatalf("attr %d = %s/%v/%d, want %s/%v/%d",
				j, ga.Name, ga.Kind, ga.NumValues(), wa.Name, wa.Kind, wa.NumValues())
		}
		for v := 0; v < wa.NumValues(); v++ {
			if ga.Value(v) != wa.Value(v) {
				t.Fatalf("attr %d value %d = %q, want %q", j, v, ga.Value(v), wa.Value(v))
			}
		}
	}
	if got.NumInstances() != want.NumInstances() {
		t.Fatalf("%d rows, want %d", got.NumInstances(), want.NumInstances())
	}
	for i := range want.Instances {
		wi, gi := want.Instances[i], got.Instances[i]
		if gi.Weight != wi.Weight {
			t.Fatalf("row %d weight = %v, want %v", i, gi.Weight, wi.Weight)
		}
		for j := range wi.Values {
			wv, gv := wi.Values[j], gi.Values[j]
			if math.IsNaN(wv) != math.IsNaN(gv) || (!math.IsNaN(wv) && wv != gv) {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, gv, wv)
			}
		}
	}
	// The digest is the strongest equality check we have.
	if dataset.Digest(got) != dataset.Digest(want) {
		t.Fatal("digest mismatch after round trip")
	}
}

func TestRoundTripRandomSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := randomDataset(rng, rng.Intn(40))
		b, err := Marshal(d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(b) != cap(b) {
			t.Fatalf("trial %d: block of %d bytes was sized %d", trial, len(b), cap(b))
		}
		// The same rows without the column mirror take the row-gathering
		// path: same bytes, and the same text as encoding/base64's.
		rowBacked := d.ShallowWith(d.Instances)
		if fromRows, err := Marshal(rowBacked); err != nil || !bytes.Equal(fromRows, b) {
			t.Fatalf("trial %d: row-backed encoding differs from column-backed (err %v)", trial, err)
		}
		want := base64.StdEncoding.EncodeToString(b)
		for _, in := range []*dataset.Dataset{d, rowBacked} {
			if text, err := MarshalBase64(in); err != nil || text != want {
				t.Fatalf("trial %d: base64 text differs from encoding/base64's (err %v)", trial, err)
			}
		}
		if rowBacked.HasColumns() {
			t.Fatalf("trial %d: encoding a row-backed dataset built its column mirror", trial)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertEqualDatasets(t, d, got)
		if !got.HasColumns() {
			t.Fatal("decoded dataset is not column-backed")
		}
	}
}

func TestRoundTripAllNominal(t *testing.T) {
	attrs := []*dataset.Attribute{
		dataset.NewNominalAttribute("a", "x", "y", "z"),
		dataset.NewNominalAttribute("b", "p", "q"),
		dataset.NewNominalAttribute("class", "yes", "no"),
	}
	cols := [][]float64{{0, 1, 2}, {1, 0, 1}, {0, 0, 1}}
	d, err := dataset.FromColumns("nominal", attrs, 2, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, d, got)
}

func TestRoundTripAllMissing(t *testing.T) {
	attrs := []*dataset.Attribute{
		dataset.NewNumericAttribute("x"),
		dataset.NewNominalAttribute("class", "a", "b"),
	}
	cols := [][]float64{
		{dataset.Missing, dataset.Missing, dataset.Missing},
		{dataset.Missing, dataset.Missing, dataset.Missing},
	}
	d, err := dataset.FromColumns("missing", attrs, 1, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, d, got)
}

func TestRoundTripZeroRows(t *testing.T) {
	d := dataset.New("empty",
		dataset.NewNumericAttribute("x"),
		dataset.NewNominalAttribute("class", "a", "b"))
	d.ClassIndex = 1
	b, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, d, got)
}

func TestRoundTripOver64kRows(t *testing.T) {
	const rows = 65537 // crosses the u16 boundary a naive codec would trip on
	cols := [][]float64{make([]float64, rows), make([]float64, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i] = float64(i)
		cols[1][i] = float64(i % 2)
	}
	attrs := []*dataset.Attribute{
		dataset.NewNumericAttribute("x"),
		dataset.NewNominalAttribute("class", "a", "b"),
	}
	d, err := dataset.FromColumns("big", attrs, 1, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumInstances() != rows {
		t.Fatalf("decoded %d rows, want %d", got.NumInstances(), rows)
	}
	if got.Instances[65536].Values[0] != 65536 {
		t.Fatalf("row 65536 = %v", got.Instances[65536].Values)
	}
}

func TestCorruptNominalIndexRejected(t *testing.T) {
	attrs := []*dataset.Attribute{dataset.NewNominalAttribute("class", "a", "b")}
	cols := [][]float64{{0, 1}}
	d, err := dataset.FromColumns("t", attrs, 0, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the last cell (final 8 bytes) with an out-of-range index.
	bits := math.Float64bits(7)
	for i := 0; i < 8; i++ {
		b[len(b)-8+i] = byte(bits >> (8 * i))
	}
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("out-of-range nominal index accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := &Result{
		Classes: []string{"yes", "no", "maybe"},
		Labels:  []int{0, 2, 1, 0},
		Distributions: [][]float64{
			{0.7, 0.1, 0.2, 0.9},
			{0.2, 0.2, 0.5, 0.05},
			{0.1, 0.7, 0.3, 0.05},
		},
	}
	b, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Classes) != 3 || got.Classes[2] != "maybe" {
		t.Fatalf("classes = %v", got.Classes)
	}
	for i, l := range res.Labels {
		if got.Labels[i] != l {
			t.Fatalf("label %d = %d, want %d", i, got.Labels[i], l)
		}
	}
	for c := range res.Distributions {
		for i := range res.Distributions[c] {
			if got.Distributions[c][i] != res.Distributions[c][i] {
				t.Fatalf("dist (%d,%d) = %v, want %v",
					c, i, got.Distributions[c][i], res.Distributions[c][i])
			}
		}
	}

	// Truncation sweep on the result block too.
	for n := 0; n < len(b); n++ {
		if _, err := UnmarshalResult(b[:n]); err == nil {
			t.Fatalf("result prefix of %d/%d bytes decoded without error", n, len(b))
		}
	}
}

func TestResultValidation(t *testing.T) {
	if _, err := MarshalResult(&Result{
		Classes:       []string{"a"},
		Labels:        []int{2},
		Distributions: [][]float64{{1}},
	}); err == nil {
		t.Error("out-of-range label marshalled")
	}
	if _, err := MarshalResult(&Result{
		Classes:       []string{"a", "b"},
		Labels:        []int{0},
		Distributions: [][]float64{{1}},
	}); err == nil {
		t.Error("class/distribution count mismatch marshalled")
	}
	if _, err := MarshalResult(&Result{
		Classes:       []string{"a"},
		Labels:        []int{0, 0},
		Distributions: [][]float64{{1}},
	}); err == nil {
		t.Error("ragged distribution marshalled")
	}
}

func BenchmarkMarshal1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := randomDataset(rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := randomDataset(rng, 1024)
	buf, err := Marshal(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBulkBlockAllocations is the copy guard on the dmb1 codec at the
// classify_bulk block size, 4096 rows x 11 attributes: encoding allocates
// the block — or, straight into base64, the string — and nothing else, at
// its exact size, whether the dataset is column- or row-backed; decoding
// allocates per column and per slab, never per row or per value, and
// from text no more than from the block.
func TestBulkBlockAllocations(t *testing.T) {
	const rows, attrs = 4096, 11
	cols := make([][]float64, attrs)
	schema := make([]*dataset.Attribute, attrs)
	for j := range cols {
		schema[j] = dataset.NewNumericAttribute(fmt.Sprintf("a%d", j))
		cols[j] = make([]float64, rows)
		for i := range cols[j] {
			cols[j][i] = float64(i * j)
		}
	}
	d, err := dataset.FromColumns("bulk", schema, -1, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	var block []byte
	if n := testing.AllocsPerRun(10, func() { block, _ = Marshal(d) }); n != 1 {
		t.Errorf("Marshal allocates %v times, want once", n)
	}
	if len(block) != cap(block) {
		t.Errorf("Marshal sized its block %d bytes for %d", cap(block), len(block))
	}
	for _, in := range []struct {
		name string
		d    *dataset.Dataset
	}{{"column-backed", d}, {"row-backed", d.ShallowWith(d.Instances)}} {
		if n := testing.AllocsPerRun(10, func() { _, _ = MarshalBase64(in.d) }); n != 1 {
			t.Errorf("MarshalBase64 of a %s dataset allocates %v times, want once (the string)", in.name, n)
		}
	}
	raw := testing.AllocsPerRun(10, func() {
		if _, err := Unmarshal(block); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := raw / rows; perRow > 0.05 {
		t.Errorf("Unmarshal allocates %v times, %.3f per row; want <= 0.05 per row", raw, perRow)
	}
	text := base64.StdEncoding.EncodeToString(block)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := UnmarshalBase64(text); err != nil {
			t.Fatal(err)
		}
	}); n > raw {
		t.Errorf("UnmarshalBase64 allocates %v times, Unmarshal %v; want no more", n, raw)
	}
}

// TestResultBlocksExactSize: each result kind, at 4096 rows (the DMR1
// case is classify_bulk's reply), is encoded into one allocation of
// exactly its length.
func TestResultBlocksExactSize(t *testing.T) {
	const rows = 4096
	cols := func(k int) [][]float64 {
		c := make([][]float64, k)
		for i := range c {
			c[i] = make([]float64, rows)
		}
		return c
	}
	labels := make([]int, rows)
	res := &Result{Classes: []string{"c0", "c1", "c2", "c3"}, Labels: labels, Distributions: cols(4)}
	cluster := &ClusterResult{Clusters: 3, ScoreKind: ScoreDistance, Assignments: labels, Scores: cols(3)}
	regress := &RegressResult{Target: "price", Values: cols(1)[0]}
	for _, tc := range []struct {
		name    string
		marshal func() ([]byte, error)
	}{
		{"DMR1", func() ([]byte, error) { return MarshalResult(res) }},
		{"DMC1", func() ([]byte, error) { return MarshalClusterResult(cluster) }},
		{"DMV1", func() ([]byte, error) { return MarshalRegressResult(regress) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var block []byte
			n := testing.AllocsPerRun(10, func() {
				var err error
				if block, err = tc.marshal(); err != nil {
					t.Fatal(err)
				}
			})
			if n != 1 {
				t.Errorf("allocates %v times, want once", n)
			}
			if len(block) != cap(block) {
				t.Errorf("block of %d bytes was sized %d", len(block), cap(block))
			}
		})
	}
}

// A row with fewer cells than the schema has attributes encodes the
// missing cells as zeros, in the block and in its text alike.
func TestShortRowEncodesZeros(t *testing.T) {
	d := dataset.New("short", dataset.NewNumericAttribute("a"), dataset.NewNumericAttribute("b"))
	d.Instances = []*dataset.Instance{dataset.NewInstance([]float64{1, 2}), dataset.NewInstance([]float64{3})}
	b, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	text, err := MarshalBase64(d)
	if err != nil {
		t.Fatal(err)
	}
	fromText, err := UnmarshalBase64(text)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*dataset.Dataset{got, fromText} {
		if col := got.Columns()[1]; col[0] != 2 || col[1] != 0 {
			t.Fatalf("column b decodes as %v, want [2 0]", col)
		}
	}
}
