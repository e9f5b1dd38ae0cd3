package arff

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

const weatherARFF = `% the classic weather relation
@relation weather

@attribute outlook {sunny, overcast, rainy}
@attribute temperature numeric
@attribute humidity real
@attribute windy {TRUE, FALSE}
@attribute play {yes, no}

@data
sunny,85,85,FALSE,no
overcast,83,86,FALSE,yes
rainy,70,96,FALSE,?
`

func TestParseBasics(t *testing.T) {
	d, err := ParseString(weatherARFF)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Relation != "weather" {
		t.Fatalf("relation = %q", d.Relation)
	}
	if d.NumAttributes() != 5 || d.NumInstances() != 3 {
		t.Fatalf("shape %dx%d", d.NumInstances(), d.NumAttributes())
	}
	if d.ClassIndex != 4 {
		t.Fatalf("default class index = %d", d.ClassIndex)
	}
	if d.Attrs[1].Kind != dataset.Numeric || d.Attrs[2].Kind != dataset.Numeric {
		t.Fatal("numeric/real attributes not numeric")
	}
	if got := d.CellString(d.Instances[0], 0); got != "sunny" {
		t.Fatalf("cell(0,0) = %q", got)
	}
	if !d.Instances[2].IsMissing(4) {
		t.Fatal("? not parsed as missing")
	}
}

func TestParseQuotedNamesAndValues(t *testing.T) {
	doc := `@relation 'my relation'
@attribute 'attr one' {'value 1', 'value 2'}
@attribute x numeric
@data
'value 1', 3.5
"value 2", 4
`
	d, err := ParseString(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Relation != "my relation" {
		t.Fatalf("relation = %q", d.Relation)
	}
	if d.Attrs[0].Name != "attr one" {
		t.Fatalf("attr name = %q", d.Attrs[0].Name)
	}
	if got := d.CellString(d.Instances[0], 0); got != "value 1" {
		t.Fatalf("cell = %q", got)
	}
}

func TestParseStringAttribute(t *testing.T) {
	doc := "@relation s\n@attribute note string\n@attribute x numeric\n@data\nhello,1\nworld,2\nhello,3\n"
	d, err := ParseString(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !d.Attrs[0].IsString() {
		t.Fatal("string attribute not string")
	}
	if d.Attrs[0].NumValues() != 2 {
		t.Fatalf("interned %d distinct strings", d.Attrs[0].NumValues())
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no data":            "@relation r\n@attribute x numeric\n",
		"data before attr":   "@relation r\n@data\n1\n",
		"bad declaration":    "@relation r\n@foo\n@data\n",
		"bad type":           "@relation r\n@attribute x date\n@data\n",
		"unclosed nominal":   "@relation r\n@attribute x {a,b\n@data\n",
		"bad numeric cell":   "@relation r\n@attribute x numeric\n@data\nfoo\n",
		"unknown nominal":    "@relation r\n@attribute x {a}\n@data\nb\n",
		"wrong width":        "@relation r\n@attribute x numeric\n@attribute y numeric\n@data\n1\n",
		"unterminated quote": "@relation r\n@attribute x {a}\n@data\n'a\n",
	}
	for name, doc := range cases {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("%s: no error for %q", name, doc)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	doc := "% header comment\n\n@relation r\n% another\n@attribute x numeric\n\n@data\n% data comment\n1\n\n2\n"
	d, err := ParseString(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.NumInstances() != 2 {
		t.Fatalf("instances = %d", d.NumInstances())
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	d, err := ParseString(weatherARFF)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(d)
	d2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if d2.NumInstances() != d.NumInstances() || d2.NumAttributes() != d.NumAttributes() {
		t.Fatalf("round trip changed shape: %s", text)
	}
	for i, in := range d.Instances {
		for col := range d.Attrs {
			a, b := d.CellString(in, col), d2.CellString(d2.Instances[i], col)
			if a != b {
				t.Fatalf("cell (%d,%d): %q != %q", i, col, a, b)
			}
		}
	}
}

// TestRoundTripProperty round-trips random datasets through ARFF text.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%30 + 1
		d := dataset.New("prop",
			dataset.NewNumericAttribute("x"),
			dataset.NewNominalAttribute("c", "alpha", "beta", "gamma"),
			dataset.NewNominalAttribute("k", "yes", "no"))
		d.ClassIndex = 2
		for i := 0; i < n; i++ {
			vals := []float64{rng.NormFloat64() * 100, float64(rng.Intn(3)), float64(rng.Intn(2))}
			if rng.Float64() < 0.2 {
				vals[rng.Intn(3)] = dataset.Missing
			}
			d.MustAdd(dataset.NewInstance(vals))
		}
		d2, err := ParseString(Format(d))
		if err != nil {
			return false
		}
		if d2.NumInstances() != n {
			return false
		}
		for i, in := range d.Instances {
			for col := range d.Attrs {
				if d.CellString(in, col) != d2.CellString(d2.Instances[i], col) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteQuoting(t *testing.T) {
	d := dataset.New("rel with space",
		dataset.NewNominalAttribute("c", "has space", "plain"))
	d.MustAdd(dataset.NewInstance([]float64{0}))
	text := Format(d)
	if !strings.Contains(text, "'has space'") {
		t.Fatalf("values with spaces not quoted:\n%s", text)
	}
	d2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if got := d2.CellString(d2.Instances[0], 0); got != "has space" {
		t.Fatalf("quoted value round-trip = %q", got)
	}
}

// TestParseOneRowAllocs: a one-row document whose header was seen before
// costs what the row needs: the dataset and its own Attrs slice, one row
// of values and its Instance, and the cells' scratch slice; the header is
// not parsed again and no per-call line buffer is allocated.
func TestParseOneRowAllocs(t *testing.T) {
	src := dataset.New("one",
		dataset.NewNominalAttribute("a", "x", "y", "z"),
		dataset.NewNumericAttribute("b"),
		dataset.NewNominalAttribute("class", "yes", "no"))
	src.MustAdd(dataset.NewInstance([]float64{2, 1.5, 0}))
	doc := Format(src)
	if _, err := ParseString(doc); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := ParseString(doc); err != nil {
			t.Fatal(err)
		}
	})
	// 6 measured, 7 under -race, whose sync.Pool drops some puts; the
	// Scanner-based parser before the intern table took 40.
	if n > 8 {
		t.Errorf("ParseString of a one-row document allocates %v times, want <= 8", n)
	}
}
