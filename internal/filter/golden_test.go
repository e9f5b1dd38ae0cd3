package filter

import (
	"testing"

	"repro/internal/dataset"
)

// goldenFilterDigests holds dataset.Digest of every sweepFilters output on
// batchFilterData(t, 80, 3), recorded from the tree in which each filter
// still had separate row and columnar bodies (and both agreed). The single
// body must reproduce them on row-backed and column-backed input alike.
var goldenFilterDigests = []string{
	"ccfe4198cdb1033ed7b8e5ca768d1bef1c6b3f70822873f60e466026a12ee69f", // Normalize
	"d8fc98e36ad89d03c3033508d1f36d0379f7b5f0bba1d10868db9d4919c1d6eb", // Standardize
	"f400d2555bbb040436e7df690ff6d33dff164cd62f2609e8a41a3f10f634881e", // ReplaceMissingValues
	"89e7029457847a3d7294451a019902af9f67fd517cb43102c1a54c6282b7be98", // Discretize equal-width
	"5bbf0b0ad2de28738c43f9a50126327f4a71498bc932a3acb9b818c9d1decafc", // Discretize equal-frequency
	"5e4c1d773e0208e4c9f48702bb657fd1cb184e17563908e20c68cb2a484d69fa", // Discretize two columns
	"e57f4de5bb482f5c9b5e418c6623de3100d40e3c18885b393876de9963660d2d", // Remove
	"6ef071b1bd319a657130c0874b083c139b04355274cc3b7a9217d96b2b19a7a0", // Keep
	"db463c05a1ba1f4ec39b2a431b9cad21ff161f0333e1ee92bc77f81443cf3bea", // ReplaceMissingValues->Normalize->Discretize
	"56c0f2c388f2220a11e1a9d73e838a56a77ba9fc1134193e6f7d78e3946ab5b7", // Standardize->Remove
}

func TestFilterOutputsMatchGoldenDigests(t *testing.T) {
	d := batchFilterData(t, 80, 3)
	cd, err := dataset.FromColumns(d.Relation, d.Attrs, d.ClassIndex, d.Columns(), d.WeightsSlice())
	if err != nil {
		t.Fatal(err)
	}
	filters := sweepFilters()
	if len(filters) != len(goldenFilterDigests) {
		t.Fatalf("%d filters, %d golden digests", len(filters), len(goldenFilterDigests))
	}
	for i, f := range filters {
		for backing, in := range map[string]*dataset.Dataset{"rows": d, "columns": cd} {
			for path, apply := range map[string]func(*dataset.Dataset) (*dataset.Dataset, error){
				"Apply": f.Apply, "ApplyColumns": func(d *dataset.Dataset) (*dataset.Dataset, error) { return ApplyColumns(f, d) },
			} {
				out, err := apply(in)
				if err != nil {
					t.Fatalf("%s %s (%s-backed): %v", f.Name(), path, backing, err)
				}
				if got := dataset.Digest(out); got != goldenFilterDigests[i] {
					t.Errorf("%s %s (%s-backed): digest %s, want %s", f.Name(), path, backing, got, goldenFilterDigests[i])
				}
			}
		}
	}
}
