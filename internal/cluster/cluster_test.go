package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"Cobweb", "DBSCAN", "EM", "FarthestFirst", "Hierarchical", "SimpleKMeans"}
	if len(names) != len(want) {
		t.Fatalf("registry: %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if _, err := New("XMeans"); err == nil {
		t.Fatal("unknown clusterer constructed")
	}
	for _, n := range names {
		c, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != n {
			t.Fatalf("New(%s).Name() = %q", n, c.Name())
		}
	}
}

func TestKMeansRecoversPlantedClusters(t *testing.T) {
	d := datagen.GaussianClusters(3, 300, 2, 10, 5)
	km := &KMeans{K: 3, MaxIter: 100, Seed: 1}
	if err := km.Build(d); err != nil {
		t.Fatal(err)
	}
	assign, err := Assignments(km, d)
	if err != nil {
		t.Fatal(err)
	}
	purity, err := Purity(d, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	if purity < 0.98 {
		t.Fatalf("k-means purity = %v on well-separated data", purity)
	}
}

func TestKMeansSSEDecreasesWithK(t *testing.T) {
	d := datagen.GaussianClusters(4, 200, 2, 6, 7)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 4} {
		km := &KMeans{K: k, MaxIter: 50, Seed: 3}
		if err := km.Build(d); err != nil {
			t.Fatal(err)
		}
		assign, _ := Assignments(km, d)
		sse, err := SSE(d, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		if sse > prev+1e-6 {
			t.Fatalf("SSE rose from %v to %v at k=%d", prev, sse, k)
		}
		prev = sse
	}
}

func TestKMeansErrors(t *testing.T) {
	d := datagen.Weather() // all nominal
	if err := (&KMeans{K: 2}).Build(d); err == nil {
		t.Fatal("k-means accepted all-nominal data")
	}
	small := datagen.GaussianClusters(2, 3, 2, 5, 1)
	if err := (&KMeans{K: 10}).Build(small); err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestKMeansOptions(t *testing.T) {
	km := &KMeans{}
	for _, c := range [][2]string{{"k", "5"}, {"maxIterations", "7"}, {"seed", "42"}} {
		if err := km.SetOption(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	if km.K != 5 || km.MaxIter != 7 || km.Seed != 42 {
		t.Fatalf("options not applied: %+v", km)
	}
	for _, bad := range [][2]string{{"k", "0"}, {"k", "x"}, {"nope", "1"}} {
		if err := km.SetOption(bad[0], bad[1]); err == nil {
			t.Errorf("SetOption(%v) accepted", bad)
		}
	}
}

func TestFarthestFirstSpreadsCentres(t *testing.T) {
	d := datagen.GaussianClusters(3, 150, 2, 10, 9)
	ff := &FarthestFirst{K: 3, Seed: 1}
	if err := ff.Build(d); err != nil {
		t.Fatal(err)
	}
	if ff.NumClusters() != 3 {
		t.Fatalf("clusters = %d", ff.NumClusters())
	}
	// Centres must be far apart (one per planted cluster).
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			var s float64
			for k := range ff.Centroids[i] {
				diff := ff.Centroids[i][k] - ff.Centroids[j][k]
				s += diff * diff
			}
			if math.Sqrt(s) < 5 {
				t.Fatalf("centres %d,%d only %v apart", i, j, math.Sqrt(s))
			}
		}
	}
}

func TestEMRecoversMixture(t *testing.T) {
	d := datagen.GaussianClusters(2, 300, 2, 8, 11)
	em := &EM{K: 2, MaxIter: 50, Seed: 1, Tol: 1e-7}
	if err := em.Build(d); err != nil {
		t.Fatal(err)
	}
	assign, _ := Assignments(em, d)
	purity, err := Purity(d, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if purity < 0.98 {
		t.Fatalf("EM purity = %v", purity)
	}
}

func TestHierarchicalLinkages(t *testing.T) {
	d := datagen.GaussianClusters(3, 90, 2, 12, 13)
	for _, link := range []Linkage{singleLink, completeLink, AverageLink} {
		h := &Hierarchical{K: 3, Linkage: link}
		if err := h.Build(d); err != nil {
			t.Fatalf("%v: %v", link, err)
		}
		if h.NumClusters() != 3 {
			t.Fatalf("%v: clusters = %d", link, h.NumClusters())
		}
		assign, _ := Assignments(h, d)
		purity, _ := Purity(d, assign, 3)
		if purity < 0.95 {
			t.Fatalf("%v purity = %v", link, purity)
		}
		if len(h.Merges()) != 89 {
			t.Fatalf("%v: %d merges, want n-1=89", link, len(h.Merges()))
		}
	}
}

func TestHierarchicalMergeDistancesMonotoneForComplete(t *testing.T) {
	// With complete linkage over a metric, merge distances are produced in
	// non-decreasing order (reducibility); check on a small instance.
	d := datagen.GaussianClusters(2, 40, 2, 6, 15)
	h := &Hierarchical{K: 2, Linkage: completeLink}
	if err := h.Build(d); err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, m := range h.Merges() {
		if m.Distance < prev-1e-9 {
			t.Fatalf("merge distance dropped: %v after %v", m.Distance, prev)
		}
		prev = m.Distance
	}
}

func TestDBSCANFindsDenseClustersAndNoise(t *testing.T) {
	d := datagen.GaussianClusters(2, 200, 2, 12, 17)
	// Add an isolated outlier far from both clusters.
	out := make([]float64, 3)
	out[0], out[1], out[2] = 100, 100, 0
	d.MustAdd(dataset.NewInstance(out))
	db := &dbscan{Eps: 1.5, MinPts: 4}
	if err := db.Build(d); err != nil {
		t.Fatal(err)
	}
	if db.NumClusters() != 2 {
		t.Fatalf("DBSCAN found %d clusters, want 2", db.NumClusters())
	}
	labels := db.labels
	if labels[len(labels)-1] != -1 {
		t.Fatalf("outlier labelled %d, want noise (-1)", labels[len(labels)-1])
	}
}

func TestAssignConsistentWithBuild(t *testing.T) {
	d := datagen.GaussianClusters(3, 120, 2, 10, 19)
	km := &KMeans{K: 3, MaxIter: 50, Seed: 2}
	if err := km.Build(d); err != nil {
		t.Fatal(err)
	}
	// Assign must be deterministic and stable for training points.
	for _, in := range d.Instances[:20] {
		a1, _ := km.Assign(in)
		a2, _ := km.Assign(in)
		if a1 != a2 {
			t.Fatal("Assign not deterministic")
		}
	}
}

func TestUnbuiltErrors(t *testing.T) {
	in := dataset.NewInstance([]float64{0, 0, 0})
	for _, c := range []Clusterer{&KMeans{K: 2}, &FarthestFirst{K: 2}, &EM{K: 2},
		&Hierarchical{K: 2}, &dbscan{Eps: 1, MinPts: 3}, &Cobweb{Acuity: 1, Cutoff: 0.002}} {
		if _, err := c.Assign(in); err == nil {
			t.Errorf("%s: Assign before Build succeeded", c.Name())
		}
	}
}

func TestPurityProperty(t *testing.T) {
	// Purity of the ground-truth assignment is always 1.
	f := func(seedRaw uint8) bool {
		d := datagen.GaussianClusters(3, 60, 2, 5, int64(seedRaw)+1)
		assign := make([]int, d.NumInstances())
		for i, in := range d.Instances {
			assign[i] = int(in.Values[2])
		}
		p, err := Purity(d, assign, 3)
		return err == nil && math.Abs(p-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSilhouette(t *testing.T) {
	// Well-separated clusters: silhouette near 1.
	d := datagen.GaussianClusters(2, 100, 2, 20, 25)
	km := &KMeans{K: 2, MaxIter: 50, Seed: 1}
	if err := km.Build(d); err != nil {
		t.Fatal(err)
	}
	assign, _ := Assignments(km, d)
	s, err := Silhouette(d, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.8 {
		t.Fatalf("silhouette on separated data = %v", s)
	}
	// Random assignment: silhouette near or below 0.
	randAssign := make([]int, d.NumInstances())
	for i := range randAssign {
		randAssign[i] = i % 2
	}
	s2, err := Silhouette(d, randAssign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s2 > 0.2 {
		t.Fatalf("silhouette of random assignment = %v", s2)
	}
	if s <= s2 {
		t.Fatalf("good assignment (%v) not better than random (%v)", s, s2)
	}
	// Degenerate inputs.
	if _, err := Silhouette(d, assign, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	allNoise := make([]int, d.NumInstances())
	for i := range allNoise {
		allNoise[i] = -1
	}
	if _, err := Silhouette(d, allNoise, 2); err == nil {
		t.Fatal("all-noise assignment accepted")
	}
}

// TestBuildIsDeterministic: every registered clusterer labels the same
// data the same way on every build — no label depends on map order.
func TestBuildIsDeterministic(t *testing.T) {
	d := datagen.GaussianClusters(3, 60, 4, 3.0, 42)
	for _, name := range Names() {
		var first []int
		for run := 0; run < 8; run++ {
			c, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Build(d.Clone()); err != nil {
				t.Fatal(err)
			}
			assign, err := Assignments(c, d)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = assign
			} else if !slices.Equal(first, assign) {
				t.Fatalf("%s: build %d labels the data differently from build 0", name, run)
			}
		}
	}
}

// countdownCtx reports cancellation once Err has been asked more than
// left times: a cancellation that lands at a chosen point of a scan.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestKMeansSeedingHonoursCancellation: k-means++ seeding runs under the
// build's ctx. Cancelled before the first distance pass, it returns
// ctx.Err() with only the random first centroid; cancelled after one
// whole pass (n item checks and ForEach's final one), with the two seeded
// by then; and BuildContext returns that error without centroids.
func TestKMeansSeedingHonoursCancellation(t *testing.T) {
	d := datagen.GaussianClusters(4, 200, 3, 3.0, 1)
	cols, err := numericColumns(d)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(d.NumInstances())
	for _, c := range []struct {
		checks int64
		seeded int
	}{{0, 1}, {n + 1, 2}} {
		km := &KMeans{K: 4, MaxIter: 10, Seed: 1, cols: cols}
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(c.checks)
		cents, err := km.seedPlusPlus(ctx, d, rand.New(rand.NewSource(1)))
		if !errors.Is(err, context.Canceled) || len(cents) != c.seeded {
			t.Errorf("cancelled after %d checks: %d centroids, err %v; want %d, context.Canceled",
				c.checks, len(cents), err, c.seeded)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	km := &KMeans{K: 4, MaxIter: 10, Seed: 1}
	if err := km.BuildContext(ctx, d); !errors.Is(err, context.Canceled) || km.Centroids != nil {
		t.Errorf("BuildContext under a cancelled ctx: err %v, %d centroids", err, len(km.Centroids))
	}
}
