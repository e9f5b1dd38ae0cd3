package dataset

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func twoClassSet(t *testing.T, n int) *Dataset {
	t.Helper()
	d := New("test",
		NewNumericAttribute("x"),
		NewNominalAttribute("colour", "red", "green", "blue"),
		NewNominalAttribute("class", "a", "b"))
	d.ClassIndex = 2
	for i := 0; i < n; i++ {
		vals := []float64{float64(i), float64(i % 3), float64(i % 2)}
		if err := d.Add(NewInstance(vals)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return d
}

func TestAttributeBasics(t *testing.T) {
	a := NewNominalAttribute("colour", "red", "green", "blue")
	if a.NumValues() != 3 {
		t.Fatalf("NumValues = %d, want 3", a.NumValues())
	}
	if a.IndexOf("green") != 1 {
		t.Fatalf("IndexOf(green) = %d, want 1", a.IndexOf("green"))
	}
	if a.IndexOf("mauve") != -1 {
		t.Fatalf("IndexOf(mauve) = %d, want -1", a.IndexOf("mauve"))
	}
	if a.Value(2) != "blue" {
		t.Fatalf("Value(2) = %q", a.Value(2))
	}
	if a.Value(99) != "?" {
		t.Fatalf("Value(99) = %q, want ?", a.Value(99))
	}
	if _, err := a.Intern("mauve"); err == nil {
		t.Fatal("Intern of unknown nominal label should fail")
	}
	s := NewStringAttribute("note")
	i1, err := s.Intern("hello")
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	i2, _ := s.Intern("world")
	i3, _ := s.Intern("hello")
	if i1 != i3 || i1 == i2 {
		t.Fatalf("string interning broken: %d %d %d", i1, i2, i3)
	}
}

func TestAttributeClone(t *testing.T) {
	a := NewNominalAttribute("c", "x", "y")
	c := a.Clone()
	if _, err := c.Intern("x"); err != nil {
		t.Fatalf("clone lost index: %v", err)
	}
	c.Name = "renamed"
	if a.Name != "c" {
		t.Fatal("clone aliases original")
	}
}

func TestAttributeSpecString(t *testing.T) {
	if got := NewNumericAttribute("weight").SpecString(); got != "@attribute weight numeric" {
		t.Fatalf("numeric spec = %q", got)
	}
	if got := NewNominalAttribute("c", "a", "b").SpecString(); got != "@attribute c {a,b}" {
		t.Fatalf("nominal spec = %q", got)
	}
	if got := NewNumericAttribute("has space").SpecString(); !strings.Contains(got, "'has space'") {
		t.Fatalf("quoted spec = %q", got)
	}
}

func TestAddValidation(t *testing.T) {
	d := twoClassSet(t, 4)
	if err := d.Add(NewInstance([]float64{1, 2})); err == nil {
		t.Fatal("wrong-width instance accepted")
	}
	if err := d.Add(NewInstance([]float64{1, 7, 0})); err == nil {
		t.Fatal("out-of-range nominal index accepted")
	}
	if err := d.Add(NewInstance([]float64{1, 0.5, 0})); err == nil {
		t.Fatal("fractional nominal index accepted")
	}
	if err := d.Add(NewInstance([]float64{1, Missing, Missing})); err != nil {
		t.Fatalf("missing values rejected: %v", err)
	}
}

func TestAddRow(t *testing.T) {
	d := twoClassSet(t, 0)
	if err := d.AddRow([]string{"3.5", "red", "b"}); err != nil {
		t.Fatalf("AddRow: %v", err)
	}
	if err := d.AddRow([]string{"?", "?", "a"}); err != nil {
		t.Fatalf("AddRow missing: %v", err)
	}
	in := d.Instances[0]
	if in.Values[0] != 3.5 || in.Values[1] != 0 || in.Values[2] != 1 {
		t.Fatalf("parsed row = %v", in.Values)
	}
	if !d.Instances[1].IsMissing(0) || !d.Instances[1].IsMissing(1) {
		t.Fatal("? cells not missing")
	}
	if err := d.AddRow([]string{"abc", "red", "a"}); err == nil {
		t.Fatal("non-numeric cell accepted for numeric attribute")
	}
	if err := d.AddRow([]string{"1", "purple", "a"}); err == nil {
		t.Fatal("unknown nominal value accepted")
	}
}

func TestClassHelpers(t *testing.T) {
	d := twoClassSet(t, 10)
	if d.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d", d.NumClasses())
	}
	counts := d.ClassCounts()
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("ClassCounts = %v", counts)
	}
	d.Instances[0].Values[2] = Missing
	if got := d.DeleteWithMissingClass().NumInstances(); got != 9 {
		t.Fatalf("DeleteWithMissingClass -> %d instances", got)
	}
	if err := d.SetClassByName("colour"); err != nil {
		t.Fatalf("SetClassByName: %v", err)
	}
	if d.ClassIndex != 1 {
		t.Fatalf("ClassIndex = %d", d.ClassIndex)
	}
	if err := d.SetClassByName("nope"); err == nil {
		t.Fatal("SetClassByName accepted unknown attribute")
	}
}

func TestCellString(t *testing.T) {
	d := twoClassSet(t, 1)
	in := d.Instances[0]
	if got := d.CellString(in, 1); got != "red" {
		t.Fatalf("CellString nominal = %q", got)
	}
	in.Values[0] = Missing
	if got := d.CellString(in, 0); got != "?" {
		t.Fatalf("CellString missing = %q", got)
	}
}

func TestProject(t *testing.T) {
	d := twoClassSet(t, 6)
	p, err := d.Project([]int{1, 2})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.NumAttributes() != 2 || p.ClassIndex != 1 {
		t.Fatalf("projected schema: %d attrs, class %d", p.NumAttributes(), p.ClassIndex)
	}
	if p.NumInstances() != 6 {
		t.Fatalf("projected rows = %d", p.NumInstances())
	}
	// Class excluded -> ClassIndex -1.
	p2, err := d.Project([]int{0})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p2.ClassIndex != -1 {
		t.Fatalf("classless projection has ClassIndex %d", p2.ClassIndex)
	}
	if _, err := d.Project([]int{99}); err == nil {
		t.Fatal("out-of-range projection accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := twoClassSet(t, 3)
	c := d.Clone()
	c.Instances[0].Values[0] = 999
	if d.Instances[0].Values[0] == 999 {
		t.Fatal("Clone aliases instance data")
	}
}

func TestSummarizeFigure3Shape(t *testing.T) {
	d := twoClassSet(t, 10)
	d.Instances[0].Values[0] = Missing
	s := Summarize(d)
	if s.NumInstances != 10 || s.NumAttributes != 3 {
		t.Fatalf("summary header: %+v", s)
	}
	if s.NumDiscrete != 2 || s.NumContinuous != 1 {
		t.Fatalf("type counts: discrete=%d continuous=%d", s.NumDiscrete, s.NumContinuous)
	}
	if s.MissingCells != 1 {
		t.Fatalf("missing cells = %d", s.MissingCells)
	}
	if s.PerAttribute[1].Type != "Enum" || s.PerAttribute[0].Type != "Int" {
		t.Fatalf("per-attribute types: %+v", s.PerAttribute)
	}
	txt := s.Format()
	for _, want := range []string{"Num Instances 10", "Num Attributes 3", "Missing values 1"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Format() lacks %q:\n%s", want, txt)
		}
	}
}

func TestSummarizeNumericMoments(t *testing.T) {
	d := New("m", NewNumericAttribute("x"))
	d.ClassIndex = -1
	for _, v := range []float64{1, 2, 3, 4} {
		d.MustAdd(NewInstance([]float64{v}))
	}
	s := Summarize(d)
	a := s.PerAttribute[0]
	if a.Min != 1 || a.Max != 4 || a.Mean != 2.5 {
		t.Fatalf("moments: %+v", a)
	}
	if math.Abs(a.StdDev-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("stddev = %v", a.StdDev)
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Entropy(5,5) = %v, want 1", got)
	}
	if got := Entropy([]float64{10, 0}); got != 0 {
		t.Fatalf("Entropy(10,0) = %v, want 0", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Fatalf("Entropy(nil) = %v", got)
	}
	// 4-way uniform = 2 bits.
	if got := Entropy([]float64{1, 1, 1, 1}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Entropy uniform4 = %v", got)
	}
}

func TestEntropyProperty(t *testing.T) {
	// Entropy is non-negative and bounded by log2(k).
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]float64, len(raw))
		for i, v := range raw {
			counts[i] = float64(v)
		}
		h := Entropy(counts)
		return h >= 0 && h <= math.Log2(float64(len(counts)))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValueCountsAndNumericColumn(t *testing.T) {
	d := twoClassSet(t, 6)
	vc := d.ValueCounts(1)
	if vc[0] != 2 || vc[1] != 2 || vc[2] != 2 {
		t.Fatalf("ValueCounts = %v", vc)
	}
	d.Instances[0].Values[0] = Missing
	col := d.NumericColumn(0)
	if len(col) != 5 {
		t.Fatalf("NumericColumn has %d values", len(col))
	}
}

func TestShuffleDeterministic(t *testing.T) {
	d1 := twoClassSet(t, 20)
	d2 := twoClassSet(t, 20)
	d1.Shuffle(rand.New(rand.NewSource(5)))
	d2.Shuffle(rand.New(rand.NewSource(5)))
	for i := range d1.Instances {
		if d1.Instances[i].Values[0] != d2.Instances[i].Values[0] {
			t.Fatal("same-seed shuffles differ")
		}
	}
}
