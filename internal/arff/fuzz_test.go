package arff

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// coldParses numbers the comment that makes each cold parse's header one
// the intern table has never seen.
var coldParses atomic.Int64

// sameDataset reports how a and b differ: relation, class index, every
// attribute's declaration, and every cell and weight bit for bit.
func sameDataset(a, b *dataset.Dataset) error {
	if a.Relation != b.Relation || a.ClassIndex != b.ClassIndex {
		return fmt.Errorf("relation %q class %d vs %q class %d", a.Relation, a.ClassIndex, b.Relation, b.ClassIndex)
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Instances) != len(b.Instances) {
		return fmt.Errorf("shape %dx%d vs %dx%d", len(a.Instances), len(a.Attrs), len(b.Instances), len(b.Attrs))
	}
	for j := range a.Attrs {
		if sa, sb := a.Attrs[j].SpecString(), b.Attrs[j].SpecString(); sa != sb {
			return fmt.Errorf("attribute %d: %q vs %q", j, sa, sb)
		}
	}
	for i, in := range a.Instances {
		other := b.Instances[i]
		if math.Float64bits(in.Weight) != math.Float64bits(other.Weight) {
			return fmt.Errorf("row %d weight %v vs %v", i, in.Weight, other.Weight)
		}
		for j, v := range in.Values {
			if math.Float64bits(v) != math.Float64bits(other.Values[j]) {
				return fmt.Errorf("cell (%d,%d): %v vs %v", i, j, v, other.Values[j])
			}
		}
	}
	return nil
}

// FuzzARFF: whatever the text, ParseString returns a dataset or an error,
// never a panic; a parse whose header the intern table has never seen
// (cold) and one that takes the interned schema (hot) agree; and a parsed
// dataset survives Format and ParseString unchanged.
func FuzzARFF(f *testing.F) {
	f.Add(weatherARFF)
	f.Add(strings.ReplaceAll(weatherARFF, "\n", "\r\n"))
	f.Add("@relation 'my relation'\n@attribute 'attr one' {'value 1', 'value 2'}\n@attribute \"x y\" numeric\n@data\n'value 1', 3.5\n\"value 2\", ?\n")
	f.Add("% c\n\n@RELATION r\n% c2\n@Attribute a real\n@attribute b {'it\\'s', 'a,b', \"q\\\"\"}\n@data\n% row comment\n?, 'a,b'\n1e3,'it\\'s'\n\n")
	f.Add("@relation s\n@attribute note string\n@attribute k {a,b}\n@data\n'hello world',a\nworld,?\nhello,b\n")
	f.Add("@relation r\n@attribute x numeric\n@data\n")
	f.Fuzz(func(t *testing.T, doc string) {
		cold, coldErr := ParseString(fmt.Sprintf("%% cold %d\n", coldParses.Add(1)) + doc)
		_, _ = ParseString(doc) // interns the header, if it can be
		hot, hotErr := ParseString(doc)
		if (coldErr == nil) != (hotErr == nil) {
			t.Fatalf("cold parse err %v, hot parse err %v", coldErr, hotErr)
		}
		if hotErr != nil {
			return
		}
		if err := sameDataset(cold, hot); err != nil {
			t.Fatalf("cold and hot parses differ: %v", err)
		}
		text := Format(hot)
		again, err := ParseString(text)
		if err != nil {
			t.Fatalf("Format's text does not parse: %v\n%s", err, text)
		}
		if err := sameDataset(hot, again); err != nil {
			t.Fatalf("round trip through Format differs: %v\n%s", err, text)
		}
	})
}
