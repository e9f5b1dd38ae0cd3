package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/filter"
	"repro/internal/regress"
	"repro/internal/wire"
)

// TestClientBatchPipeline drives the typed block API end to end: a
// FilterBatch hop chained by payload into a second hop, the result fed
// to ClusterBatch, plus RegressBatch — each held to bit-identity with
// the local columnar kernels.
func TestClientBatchPipeline(t *testing.T) {
	dep := deploy(t)
	c := NewClient(dep.BaseURL)
	ctx := context.Background()

	raw := datagen.GaussianClusters(3, 80, 4, 3.0, 21)

	// Hop 1: normalize as a block.
	f1, err := c.FilterBatch(ctx, FilterBatchOptions{Dataset: raw, Filter: "Normalize"})
	if err != nil {
		t.Fatal(err)
	}
	if f1.Rows != raw.NumInstances() || f1.Encoding != wire.Encoding {
		t.Fatalf("hop 1 rows %d encoding %q", f1.Rows, f1.Encoding)
	}
	wantF1, err := filter.Normalize{}.Apply(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantF1.Instances {
		for j := range wantF1.Instances[i].Values {
			if math.Float64bits(f1.Dataset.Instances[i].Values[j]) != math.Float64bits(wantF1.Instances[i].Values[j]) {
				t.Fatalf("hop 1 row %d col %d: %v, want %v", i, j,
					f1.Dataset.Instances[i].Values[j], wantF1.Instances[i].Values[j])
			}
		}
	}

	// Hop 2: chain by payload — no re-encode, no ARFF.
	f2, err := c.FilterBatch(ctx, FilterBatchOptions{
		Payload: f1.Payload, Filter: "Remove", Attributes: []string{"xa"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f2.Dataset.NumAttributes() != raw.NumAttributes()-1 {
		t.Fatalf("hop 2 kept %d attributes", f2.Dataset.NumAttributes())
	}

	// Cluster the filtered block.
	cb, err := c.ClusterBatch(ctx, ClusterBatchOptions{
		Batch:     f2.Dataset,
		Clusterer: "SimpleKMeans",
		Options:   map[string]string{"k": "3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cb.Clusters != 3 || len(cb.Assignments) != f2.Dataset.NumInstances() {
		t.Fatalf("clusters %d assignments %d", cb.Clusters, len(cb.Assignments))
	}
	if cb.ScoreKind != wire.ScoreDistance || len(cb.Scores) != 3 {
		t.Fatalf("score kind %q with %d columns", cb.ScoreKind, len(cb.Scores))
	}
	km := &cluster.KMeans{K: 3, MaxIter: 100, Seed: 1}
	if err := km.Build(f2.Dataset); err != nil {
		t.Fatal(err)
	}
	wantAssign, _, _, err := cluster.AssignAll(km, f2.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantAssign {
		if cb.Assignments[i] != wantAssign[i] {
			t.Fatalf("row %d assigned %d, want %d", i, cb.Assignments[i], wantAssign[i])
		}
	}

	// RegressBatch against the Regressor service.
	train := datagen.WeatherNumeric()
	rb, err := c.RegressBatch(ctx, RegressBatchOptions{
		Train:     train,
		Batch:     train.Clone(),
		Regressor: "LinearRegression",
		Target:    "temperature",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Target != "temperature" || len(rb.Values) != train.NumInstances() {
		t.Fatalf("regress target %q values %d", rb.Target, len(rb.Values))
	}
	local := train.Clone()
	if err := local.SetClassByName("temperature"); err != nil {
		t.Fatal(err)
	}
	lr := &regress.LinearRegression{}
	if err := lr.Train(local); err != nil {
		t.Fatal(err)
	}
	want, err := regress.PredictBatch(lr, train.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(rb.Values[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: %v, want %v", i, rb.Values[i], want[i])
		}
	}
}

// TestClientBatchValidation pins the client-side errors that never
// reach the wire.
func TestClientBatchValidation(t *testing.T) {
	c := NewClient("http://127.0.0.1:1")
	ctx := context.Background()
	if _, err := c.ClusterBatch(ctx, ClusterBatchOptions{Clusterer: "SimpleKMeans"}); err == nil {
		t.Error("nil batch accepted")
	}
	if _, err := c.ClusterBatch(ctx, ClusterBatchOptions{Batch: datagen.WeatherNumeric()}); err == nil {
		t.Error("empty clusterer accepted")
	}
	if _, err := c.RegressBatch(ctx, RegressBatchOptions{Batch: datagen.WeatherNumeric(), Regressor: "x"}); err == nil {
		t.Error("nil train accepted")
	}
	if _, err := c.FilterBatch(ctx, FilterBatchOptions{Filter: "Normalize"}); err == nil {
		t.Error("no dataset or payload accepted")
	}
	if _, err := c.FilterBatch(ctx, FilterBatchOptions{Dataset: datagen.WeatherNumeric()}); err == nil {
		t.Error("empty filter accepted")
	}
}
