package cluster

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/parallel"
)

// setProcs sets GOMAXPROCS to p, restoring the original when t ends.
// Kernels size their helper budget from GOMAXPROCS, so this is how a
// test varies it.
func setProcs(t *testing.T, p int) {
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// contended builds 4 copies of a kernel inside an outer ForEach at
// GOMAXPROCS 2, so the copies compete for the one helper token and each
// kernel's blocks run partly inline and partly on a helper.
func contended[T any](t *testing.T, build func() (T, error)) []T {
	t.Helper()
	runtime.GOMAXPROCS(2)
	out := make([]T, 4)
	err := parallel.ForEach(context.Background(), len(out), func(i int) error {
		var err error
		out[i], err = build()
		return err
	})
	if err != nil {
		t.Fatalf("contended: %v", err)
	}
	return out
}

// bits flattens float rows into their Float64bits.
func bits(rows ...[]float64) []uint64 {
	var out []uint64
	for _, r := range rows {
		for _, v := range r {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestKMeansParallelDeterminism builds the same clustering at several
// GOMAXPROCS settings and demands identical centroids and assignments:
// the assignment scan writes by index and the centroid update stays
// sequential, so float summation order never varies.
func TestKMeansParallelDeterminism(t *testing.T) {
	d := datagen.GaussianClusters(4, 200, 3, 3.0, 9)
	setProcs(t, 1)
	fit := func() (*KMeans, error) {
		km := &KMeans{K: 4, MaxIter: 50, Seed: 5}
		return km, km.Build(d)
	}
	build := func(p int) *KMeans {
		runtime.GOMAXPROCS(p)
		km, err := fit()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		return km
	}
	base := build(1)
	baseAssign, err := Assignments(base, d)
	if err != nil {
		t.Fatal(err)
	}
	check := func(run string, km *KMeans) {
		if !reflect.DeepEqual(bits(km.Centroids...), bits(base.Centroids...)) {
			t.Fatalf("%s: centroids differ from sequential", run)
		}
		assign, err := Assignments(km, d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(assign, baseAssign) {
			t.Fatalf("%s: assignments differ from sequential", run)
		}
	}
	check("GOMAXPROCS 2", build(2))
	check("GOMAXPROCS 8", build(8))
	for _, km := range contended(t, fit) {
		check("contended", km)
	}
}

// TestEMParallelDeterminism checks the E-step's per-instance fan-out and
// sequential log-likelihood reduction leave the fitted mixture identical
// at any GOMAXPROCS, via the cluster assignments it induces.
func TestEMParallelDeterminism(t *testing.T) {
	d := datagen.GaussianClusters(3, 150, 2, 3.0, 4)
	setProcs(t, 1)
	fit := func() (*EM, error) {
		em := &EM{K: 3, MaxIter: 30, Seed: 2}
		return em, em.Build(d)
	}
	build := func(p int) *EM {
		runtime.GOMAXPROCS(p)
		em, err := fit()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		return em
	}
	base := build(1)
	baseAssign, err := Assignments(base, d)
	if err != nil {
		t.Fatal(err)
	}
	check := func(run string, em *EM) {
		got := bits(append(append([][]float64{em.weights}, em.means...), em.vars...)...)
		want := bits(append(append([][]float64{base.weights}, base.means...), base.vars...)...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: mixture parameters differ from sequential", run)
		}
		assign, err := Assignments(em, d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(assign, baseAssign) {
			t.Fatalf("%s: assignments differ from sequential", run)
		}
	}
	check("GOMAXPROCS 2", build(2))
	check("GOMAXPROCS 8", build(8))
	for _, em := range contended(t, fit) {
		check("contended", em)
	}
}
