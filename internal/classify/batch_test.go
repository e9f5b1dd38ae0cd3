package classify_test

import (
	"math"
	"testing"

	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// TestBatchMatchesRowPathAllClassifiers is the bit-identicality gate:
// for every registered classifier, PredictBatch must produce exactly
// the labels and distributions the per-instance row path produces, both
// on the original row-backed dataset and on a column-first rebuild of
// it (the shape a decoded dmb1 payload has).
func TestBatchMatchesRowPathAllClassifiers(t *testing.T) {
	mixed := datagen.Weather()         // nominal + numeric attributes
	nominal := datagen.ContactLenses() // all-nominal fallback

	for _, name := range classify.Names() {
		t.Run(name, func(t *testing.T) {
			c, err := classify.New(name)
			if err != nil {
				t.Fatal(err)
			}
			d := mixed
			if err := c.Train(d); err != nil {
				d = nominal
				c, _ = classify.New(name)
				if err := c.Train(d); err != nil {
					t.Fatalf("train failed on both datasets: %v", err)
				}
			}

			// Row path, one instance at a time.
			wantLabels := make([]int, d.NumInstances())
			wantDists := make([][]float64, d.NumInstances())
			for i, in := range d.Instances {
				dist, err := c.Distribution(in)
				if err != nil {
					t.Fatalf("row %d: %v", i, err)
				}
				wantDists[i] = dist
				wantLabels[i], err = classify.Predict(c, in)
				if err != nil {
					t.Fatal(err)
				}
			}

			check := func(tag string, batch *dataset.Dataset) {
				labels, dists, err := classify.PredictBatch(c, batch)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if len(labels) != len(wantLabels) {
					t.Fatalf("%s: %d labels, want %d", tag, len(labels), len(wantLabels))
				}
				for i := range wantLabels {
					if labels[i] != wantLabels[i] {
						t.Errorf("%s: row %d label = %d, want %d", tag, i, labels[i], wantLabels[i])
					}
					for cl := range wantDists[i] {
						got, want := dists[i][cl], wantDists[i][cl]
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s: row %d class %d p = %v, want %v (not bit-identical)",
								tag, i, cl, got, want)
						}
					}
				}
			}

			check("row-backed", d)

			dc, err := dataset.FromColumns(d.Relation, d.Attrs, d.ClassIndex, d.Columns(), d.WeightsSlice())
			if err != nil {
				t.Fatal(err)
			}
			check("column-first", dc)
		})
	}
}

// TestBatchScorersRegistered pins the classifiers that carry a block entry
// point (per-block setup worth amortising) so a refactor silently adding or
// dropping one fails loudly; every other classifier is scored row by row.
func TestBatchScorersRegistered(t *testing.T) {
	want := map[string]bool{"IBk": true, "NaiveBayes": true}
	for _, name := range classify.Names() {
		c, err := classify.New(name)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := c.(interface {
			DistributionBatch(*dataset.Dataset) ([][]float64, error)
		})
		if ok != want[name] {
			t.Errorf("%s: has DistributionBatch = %v, want %v", name, ok, want[name])
		}
	}
}

// TestBatchIBkVariants exercises IBk's batch kernel across K and
// distance weighting, including queries with missing cells.
func TestBatchIBkVariants(t *testing.T) {
	d := datagen.IrisLike(20, 3)
	// Punch some missing cells into a copy used for querying.
	q := d.Clone()
	q.Instances[0].Values[0] = dataset.Missing
	q.Instances[5].Values[2] = dataset.Missing
	q.InvalidateColumns()

	for _, tc := range []struct {
		k  int
		dw bool
	}{{1, false}, {3, false}, {5, true}} {
		c := &classify.IBk{K: tc.k, DistanceWeight: tc.dw}
		if err := c.Train(d); err != nil {
			t.Fatal(err)
		}
		labels, dists, err := classify.PredictBatch(c, q)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range q.Instances {
			want, err := c.Distribution(in)
			if err != nil {
				t.Fatal(err)
			}
			for cl := range want {
				if math.Float64bits(dists[i][cl]) != math.Float64bits(want[cl]) {
					t.Fatalf("k=%d dw=%v row %d class %d: %v != %v",
						tc.k, tc.dw, i, cl, dists[i][cl], want[cl])
				}
			}
			wl, _ := classify.Predict(c, in)
			if labels[i] != wl {
				t.Fatalf("k=%d dw=%v row %d label %d != %d", tc.k, tc.dw, i, labels[i], wl)
			}
		}
	}
}

// BenchmarkIBkBatch scores one 32-row column-first block with IBk k=5
// over 2000 cases × 16 numerics: kernel_heavy's shape.
func BenchmarkIBkBatch(b *testing.B) {
	c := &classify.IBk{K: 5}
	if err := c.Train(datagen.GaussianClusters(4, 2000, 16, 3.0, 1)); err != nil {
		b.Fatal(err)
	}
	q := datagen.GaussianClusters(4, 32, 16, 3.0, 2)
	qc, err := dataset.FromColumns(q.Relation, q.Attrs, q.ClassIndex, q.Columns(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DistributionBatch(qc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowScore1024(b *testing.B) {
	benchScore(b, false)
}

func BenchmarkBatchScore1024(b *testing.B) {
	benchScore(b, true)
}

func benchScore(b *testing.B, batch bool) {
	train := datagen.IrisLike(60, 1)
	q := datagen.IrisLike(342, 2) // ~1024 rows over 3 classes
	c, _ := classify.New("NaiveBayes")
	if err := c.Train(train); err != nil {
		b.Fatal(err)
	}
	q.Columns() // pre-build so the codec-decode shape is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch {
			if _, _, err := classify.PredictBatch(c, q); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, in := range q.Instances {
				if _, err := c.Distribution(in); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkJ48Batch scores one 4096-row column-first block with J48:
// classify_bulk's shape.
func BenchmarkJ48Batch(b *testing.B) {
	c := classify.NewJ48()
	if err := c.Train(datagen.RandomNominal(4096, 10, 4, 0.2, 1)); err != nil {
		b.Fatal(err)
	}
	q := datagen.RandomNominal(4096, 10, 4, 0.2, 2)
	qc, err := dataset.FromColumns(q.Relation, q.Attrs, q.ClassIndex, q.Columns(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := classify.PredictBatch(c, qc); err != nil {
			b.Fatal(err)
		}
	}
}
