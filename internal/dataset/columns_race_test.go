package dataset_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/arff"
	"repro/internal/datagen"
)

// TestColumnsConcurrentFirstReaders: goroutines racing to build a
// row-first dataset's column mirror all get the same cells. Run under
// -race it also proves the lazy mirror is published safely.
func TestColumnsConcurrentFirstReaders(t *testing.T) {
	const n = 8
	d, err := arff.ParseString(arff.Format(datagen.BreastCancer()))
	if err != nil {
		t.Fatal(err)
	}
	if d.HasColumns() {
		t.Fatal("freshly parsed dataset already has a column mirror")
	}
	got := make([][][]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = d.Columns()
		}(g)
	}
	wg.Wait()
	for g, cols := range got {
		if len(cols) != len(d.Attrs) {
			t.Fatalf("reader %d: %d columns, want %d", g, len(cols), len(d.Attrs))
		}
		for j, col := range cols {
			for i, v := range col {
				want := d.Instances[i].Values[j]
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("reader %d: cell (%d, %d) = %v, want %v", g, i, j, v, want)
				}
			}
		}
	}
}
