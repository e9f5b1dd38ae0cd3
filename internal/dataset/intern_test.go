package dataset_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/arff"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/wire"
)

// parse parses doc, failing the test on error.
func parse(t testing.TB, doc string) *dataset.Dataset {
	t.Helper()
	d, err := arff.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// specs is every attribute's declaration.
func specs(d *dataset.Dataset) []string {
	out := make([]string, len(d.Attrs))
	for i, a := range d.Attrs {
		out[i] = a.SpecString()
	}
	return out
}

// TestInternSharesAttributesNotSlices: two parses of one header share
// their *Attribute values (the table works) but not the slice holding
// them, so replacing or appending an attribute in one dataset leaves the
// other, and every later parse, alone. The same holds for dmb1 blocks.
func TestInternSharesAttributesNotSlices(t *testing.T) {
	doc := "@relation shared\n@attribute a {x,y}\n@attribute b numeric\n@attribute c {p,q}\n@data\nx,1,p\n"
	d0 := parse(t, doc) // interns the header: the next two take it from the table
	d1, d2 := parse(t, doc), parse(t, doc)
	want := specs(d0)
	for i := range d1.Attrs {
		if d1.Attrs[i] != d2.Attrs[i] {
			t.Fatalf("attribute %d not shared between two parses of one header", i)
		}
	}
	d1.Attrs[0] = dataset.NewNumericAttribute("replaced")
	d1.Attrs = append(d1.Attrs, dataset.NewNumericAttribute("appended"))
	for _, d := range []*dataset.Dataset{d0, d2, parse(t, doc)} {
		if got := specs(d); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after writing one dataset's Attrs another reads %q, want %q", got, want)
		}
	}

	block, err := wire.MarshalBase64(d2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.UnmarshalBase64(block); err != nil {
		t.Fatal(err)
	}
	b1, err1 := wire.UnmarshalBase64(block)
	b2, err2 := wire.UnmarshalBase64(block)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b1.Attrs[2] != b2.Attrs[2] {
		t.Fatal("two decodes of one dmb1 schema do not share attributes")
	}
	b1.Attrs[2] = dataset.NewNumericAttribute("replaced")
	if b2.Attrs[2].Name != "c" {
		t.Fatalf("writing one decoded block's Attrs changed another's: %q", b2.Attrs[2].Name)
	}
}

// TestStringSchemasNeverInterned: Intern adds to a String attribute's
// values, so a schema holding one is never shared, by either decoder,
// and one dataset's strings never show up in another's attribute.
func TestStringSchemasNeverInterned(t *testing.T) {
	doc := "@relation s\n@attribute k {a,b}\n@attribute note string\n@data\na,hello\n"
	d1, d2 := parse(t, doc), parse(t, doc)
	for i := range d1.Attrs {
		if d1.Attrs[i] == d2.Attrs[i] {
			t.Fatalf("attribute %d of a schema with a String attribute is shared", i)
		}
	}
	if err := d1.AddRow([]string{"b", "only in d1"}); err != nil {
		t.Fatal(err)
	}
	if n := d2.Attrs[1].NumValues(); n != 1 {
		t.Fatalf("d2's string attribute holds %d values after a row was added to d1", n)
	}
	block, err := wire.MarshalBase64(d1)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := wire.UnmarshalBase64(block)
	b2, _ := wire.UnmarshalBase64(block)
	if b1 == nil || b2 == nil || b1.Attrs[1] == b2.Attrs[1] {
		t.Fatal("a dmb1 schema with a String attribute is shared")
	}
}

// TestInternTableBounded: ten thousand distinct headers leave the table
// exactly at its cap, and a header longer than the key cap is parsed
// afresh every time.
func TestInternTableBounded(t *testing.T) {
	for i := 0; i < 10000; i++ {
		parse(t, fmt.Sprintf("@relation r%d\n@attribute a numeric\n@data\n1\n", i))
	}
	if n := dataset.InternedSchemas(); n != dataset.MaxSchemas {
		t.Fatalf("table holds %d schemas after 10000 distinct headers, want the cap %d", n, dataset.MaxSchemas)
	}
	long := "% " + strings.Repeat("x", dataset.MaxSchemaKey) + "\n@attribute a numeric\n@data\n1\n"
	if parse(t, long).Attrs[0] == parse(t, long).Attrs[0] {
		t.Fatal("a header over the key cap was interned")
	}
}

// TestInternConcurrentParses: goroutines parse one shape — in ARFF and
// as dmb1 — and read its shared attributes while others churn the table
// with new shapes. Run under -race it checks the table's locking and that
// nothing writes a shared attribute.
func TestInternConcurrentParses(t *testing.T) {
	src := datagen.BreastCancer()
	doc := arff.Format(src)
	block, err := wire.MarshalBase64(src)
	if err != nil {
		t.Fatal(err)
	}
	want := specs(parse(t, doc))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d, err := arff.ParseString(doc)
				if g%2 == 1 {
					d, err = wire.UnmarshalBase64(block)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if got := specs(d); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("goroutine %d read %q", g, got)
					return
				}
				if _, err := arff.ParseString(fmt.Sprintf("@relation g%d-%d\n@attribute a {x}\n@data\nx\n", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
