package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// batchTestData is a numeric clustering workload with missing cells
// poked in, so the batch kernels' skip-missing paths are exercised.
func batchTestData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := datagen.GaussianClusters(3, 60, 4, 3.0, 42)
	rng := rand.New(rand.NewSource(9))
	for _, in := range d.Instances {
		if rng.Intn(6) == 0 {
			in.Values[rng.Intn(len(in.Values)-1)] = dataset.Missing
		}
	}
	d.InvalidateColumns()
	return d
}

// columnFirst rebuilds d as a column-backed dataset, the layout a dmb1
// decode produces.
func columnFirst(t *testing.T, d *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	cd, err := dataset.FromColumns(d.Relation, d.Attrs, d.ClassIndex, d.Columns(), d.WeightsSlice())
	if err != nil {
		t.Fatal(err)
	}
	return cd
}

// TestBatchMatchesRowPathAllClusterers is the sweep gate for the
// batchAssigner contract: for every registered clusterer, AssignAll must
// reproduce the per-row Assign loop exactly — same assignments on both
// row-backed and column-backed datasets, and bit-identical score columns
// across the two backings.
func TestBatchMatchesRowPathAllClusterers(t *testing.T) {
	d := batchTestData(t)
	cd := columnFirst(t, d)
	for _, name := range Names() {
		c, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Build(d); err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		want, err := Assignments(c, d)
		if err != nil {
			t.Fatalf("%s: row path: %v", name, err)
		}
		got, scores, kind, err := AssignAll(c, d)
		if err != nil {
			t.Fatalf("%s: batch path: %v", name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s row %d: batch assigned %d, row path %d", name, i, got[i], want[i])
			}
		}
		if kind != scoreNone {
			if len(scores) != c.NumClusters() {
				t.Fatalf("%s: %d score columns for %d clusters", name, len(scores), c.NumClusters())
			}
			for cl := range scores {
				if len(scores[cl]) != d.NumInstances() {
					t.Fatalf("%s: score column %d has %d rows", name, cl, len(scores[cl]))
				}
			}
		}
		// The column-backed dataset must score bit-identically.
		colGot, colScores, colKind, err := AssignAll(c, cd)
		if err != nil {
			t.Fatalf("%s: column-backed batch: %v", name, err)
		}
		if colKind != kind {
			t.Fatalf("%s: score kind %v on columns, %v on rows", name, colKind, kind)
		}
		for i := range want {
			if colGot[i] != want[i] {
				t.Fatalf("%s row %d: column-backed assigned %d, want %d", name, i, colGot[i], want[i])
			}
		}
		for cl := range scores {
			for i := range scores[cl] {
				if math.Float64bits(colScores[cl][i]) != math.Float64bits(scores[cl][i]) {
					t.Fatalf("%s score (%d,%d): column backing %v, row backing %v",
						name, cl, i, colScores[cl][i], scores[cl][i])
				}
			}
		}
	}
}

// TestBatchDistanceScoresMatchEuclidean pins the centroid assigners'
// score columns to the row-path distance function bit for bit.
func TestBatchDistanceScoresMatchEuclidean(t *testing.T) {
	d := batchTestData(t)
	for _, name := range []string{"SimpleKMeans", "FarthestFirst", "Hierarchical"} {
		c, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Build(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var cents [][]float64
		var cols []int
		switch cc := c.(type) {
		case *KMeans:
			cents, cols = cc.Centroids, cc.cols
		case *FarthestFirst:
			cents, cols = cc.Centroids, cc.cols
		case *Hierarchical:
			cents, cols = cc.Centroids, cc.cols
		}
		_, scores, kind, err := AssignAll(c, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if kind != scoreDistance {
			t.Fatalf("%s: score kind %v, want distance", name, kind)
		}
		for cl, cent := range cents {
			for i, in := range d.Instances {
				want := euclidean(in.Values, cent, cols)
				if math.Float64bits(scores[cl][i]) != math.Float64bits(want) {
					t.Fatalf("%s score (%d,%d) = %v, want euclidean %v", name, cl, i, scores[cl][i], want)
				}
			}
		}
	}
}

// TestBatchResponsibilitiesMatchLogGauss pins EM's responsibility
// columns to the row-path densities.
func TestBatchResponsibilitiesMatchLogGauss(t *testing.T) {
	d := batchTestData(t)
	em := &EM{K: 3, MaxIter: 30, Seed: 1, Tol: 1e-6}
	if err := em.Build(d); err != nil {
		t.Fatal(err)
	}
	assign, resp, kind, err := em.AssignBatch(d)
	if err != nil {
		t.Fatal(err)
	}
	if kind != scoreResponsibility {
		t.Fatalf("score kind %v, want responsibility", kind)
	}
	for i, in := range d.Instances {
		joint := make([]float64, em.K)
		maxLog := math.Inf(-1)
		for c := 0; c < em.K; c++ {
			joint[c] = math.Log(em.weights[c]+1e-300) + em.logGauss(in, c)
			if joint[c] > maxLog {
				maxLog = joint[c]
			}
		}
		var sum float64
		for c := 0; c < em.K; c++ {
			sum += math.Exp(joint[c] - maxLog)
		}
		var total float64
		for c := 0; c < em.K; c++ {
			want := math.Exp(joint[c]-maxLog) / sum
			if math.Float64bits(resp[c][i]) != math.Float64bits(want) {
				t.Fatalf("row %d cluster %d responsibility %v, want %v", i, c, resp[c][i], want)
			}
			total += resp[c][i]
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("row %d responsibilities sum to %v", i, total)
		}
		if rowA, _ := em.Assign(in); rowA != assign[i] {
			t.Fatalf("row %d: batch %d, Assign %d", i, assign[i], rowA)
		}
	}
}

// TestAssignBatchRejectsNarrowSchema: a wire-decoded batch can carry any
// schema; a fitted column beyond the batch's attribute range must be an
// error, not a panic.
func TestAssignBatchRejectsNarrowSchema(t *testing.T) {
	d := batchTestData(t)
	km, _ := New("SimpleKMeans")
	if err := km.Build(d); err != nil {
		t.Fatal(err)
	}
	narrow, err := d.Project([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := AssignAll(km, narrow); err == nil {
		t.Fatal("narrow batch accepted")
	}
}

// TestAssignBatchUnbuilt pins the unbuilt error on every fast path.
func TestAssignBatchUnbuilt(t *testing.T) {
	d := batchTestData(t)
	for _, c := range []batchAssigner{&KMeans{}, &FarthestFirst{}, &Hierarchical{}, &EM{}} {
		if _, _, _, err := c.AssignBatch(d); err == nil {
			t.Fatalf("%T: unbuilt AssignBatch succeeded", c)
		}
	}
}

// TestAssignAllNarrowBlock: a block narrower than the fitted schema is a
// dataset.ErrWidth error from every registered clusterer, on the batch
// kernels and the row-path fallback alike — never an index panic.
func TestAssignAllNarrowBlock(t *testing.T) {
	d := datagen.GaussianClusters(3, 30, 4, 3.0, 42)
	narrow, err := d.Project([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			c, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Build(d.Clone()); err != nil {
				t.Fatal(err)
			}
			_, _, _, err = AssignAll(c, narrow.Clone())
			if !errors.Is(err, dataset.ErrWidth) {
				t.Fatalf("AssignAll on a 1-attribute block: %v, want ErrWidth", err)
			}
		})
	}
}
