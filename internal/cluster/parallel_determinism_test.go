package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datagen"
)

// setProcs sets GOMAXPROCS to p, restoring the original when t ends.
// Kernels take their worker count from GOMAXPROCS, so this is how a test
// varies it.
func setProcs(t *testing.T, p int) {
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestKMeansParallelDeterminism builds the same clustering at several
// GOMAXPROCS settings and demands identical centroids and assignments:
// the assignment scan writes by index and the centroid update stays
// sequential, so float summation order never varies.
func TestKMeansParallelDeterminism(t *testing.T) {
	d := datagen.GaussianClusters(4, 200, 3, 3.0, 9)
	setProcs(t, 1)
	build := func(p int) *KMeans {
		runtime.GOMAXPROCS(p)
		km := &KMeans{K: 4, MaxIter: 50, Seed: 5}
		if err := km.Build(d); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		return km
	}
	base := build(1)
	baseAssign, err := Assignments(base, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		km := build(p)
		if !reflect.DeepEqual(km.Centroids, base.Centroids) {
			t.Fatalf("GOMAXPROCS %d: centroids differ from sequential", p)
		}
		assign, err := Assignments(km, d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(assign, baseAssign) {
			t.Fatalf("GOMAXPROCS %d: assignments differ from sequential", p)
		}
	}
}

// TestEMParallelDeterminism checks the E-step's per-instance fan-out and
// sequential log-likelihood reduction leave the fitted mixture identical
// at any GOMAXPROCS, via the cluster assignments it induces.
func TestEMParallelDeterminism(t *testing.T) {
	d := datagen.GaussianClusters(3, 150, 2, 3.0, 4)
	setProcs(t, 1)
	build := func(p int) *EM {
		runtime.GOMAXPROCS(p)
		em := &EM{K: 3, MaxIter: 30, Seed: 2}
		if err := em.Build(d); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		return em
	}
	base := build(1)
	baseAssign, err := Assignments(base, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		em := build(p)
		assign, err := Assignments(em, d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(assign, baseAssign) {
			t.Fatalf("GOMAXPROCS %d: assignments differ from sequential", p)
		}
	}
}
