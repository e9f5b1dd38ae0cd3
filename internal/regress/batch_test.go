package regress

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/dataset"
)

// regressTestData builds a mixed-schema numeric-target workload with
// missing cells in both features and target.
func regressTestData(t testing.TB, rows int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New("rents",
		dataset.NewNumericAttribute("size"),
		dataset.NewNominalAttribute("area", "north", "south", "centre"),
		dataset.NewNumericAttribute("age"),
		dataset.NewNumericAttribute("rent"),
	)
	d.ClassIndex = 3
	for i := 0; i < rows; i++ {
		size := 20 + rng.Float64()*100
		area := float64(rng.Intn(3))
		age := float64(rng.Intn(80))
		rent := 8*size + 150*area - 2*age + rng.NormFloat64()*25
		vals := []float64{size, area, age, rent}
		for j := 0; j < 3; j++ {
			if rng.Intn(12) == 0 {
				vals[j] = dataset.Missing
			}
		}
		if rng.Intn(15) == 0 {
			vals[3] = dataset.Missing
		}
		if err := d.Add(dataset.NewInstance(vals)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestBatchMatchesRowPathAllRegressors holds every registered regressor
// to the same predictions on a row-built batch and on its column-first
// rebuild (the layout a dmb1 decode produces). The golden digests pin what
// those predictions are.
func TestBatchMatchesRowPathAllRegressors(t *testing.T) {
	train := regressTestData(t, 60, 4)
	batch := regressTestData(t, 40, 11)
	for _, name := range Registry.Names() {
		r, err := Registry.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Train(train); err != nil {
			t.Fatalf("%s: train: %v", name, err)
		}
		for _, d := range []*dataset.Dataset{train, batch} {
			assertBackingsAgree(t, r, d)
		}
	}
}

// assertBackingsAgree predicts d row-backed and column-backed and
// compares the two bit for bit.
func assertBackingsAgree(t *testing.T, r Regressor, d *dataset.Dataset) {
	t.Helper()
	want, err := PredictBatch(r, d)
	if err != nil {
		t.Fatalf("%s: %v", r.Name(), err)
	}
	cd, err := dataset.FromColumns(d.Relation, d.Attrs, d.ClassIndex, d.Columns(), d.WeightsSlice())
	if err != nil {
		t.Fatal(err)
	}
	got, err := PredictBatch(r, cd)
	if err != nil {
		t.Fatalf("%s: column-backed batch: %v", r.Name(), err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s row %d: column-backed %v, row-backed %v", r.Name(), i, got[i], want[i])
		}
	}
}

// TestBatchDistanceWeightedKNN re-runs the sweep with the k-NN options
// changed, so the weighted-mean tail is held to the same contract.
func TestBatchDistanceWeightedKNN(t *testing.T) {
	k := &KNNRegressor{K: 5, DistanceWeight: true}
	if err := k.Train(regressTestData(t, 50, 7)); err != nil {
		t.Fatal(err)
	}
	assertBackingsAgree(t, k, regressTestData(t, 30, 13))
}

// TestPredictBatchUntrained pins the untrained error.
func TestPredictBatchUntrained(t *testing.T) {
	d := regressTestData(t, 5, 1)
	if _, err := PredictBatch(&LinearRegression{}, d); err == nil {
		t.Error("untrained LinearRegression batch succeeded")
	}
	if _, err := PredictBatch(&KNNRegressor{}, d); err == nil {
		t.Error("untrained KNNRegressor batch succeeded")
	}
}

// TestPredictBatchRejectsNarrowSchema: a wire-decoded batch narrower
// than the fitted schema must error, not panic or drop columns.
func TestPredictBatchRejectsNarrowSchema(t *testing.T) {
	train := regressTestData(t, 40, 2)
	narrow, err := train.Project([]int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Regressor{&KNNRegressor{K: 3}, &LinearRegression{}} {
		if err := r.Train(train); err != nil {
			t.Fatal(err)
		}
		want := r.Name() + " instance has 2 values, model expects 4"
		if _, err := PredictBatch(r, narrow); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on a narrow batch: %v, want %q", r.Name(), err, want)
		}
		if _, err := r.Predict(narrow.Instances[0]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on a narrow row: %v, want %q", r.Name(), err, want)
		}
	}
}

// TestRegistry pins the registry surface the Regressor service exposes.
func TestRegistry(t *testing.T) {
	names := Registry.Names()
	if len(names) != 2 || names[0] != "KNNRegressor" || names[1] != "LinearRegression" {
		t.Fatalf("Registry.Names() = %v", names)
	}
	r, err := Registry.New("LinearRegression")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := r.(algo.Parameterized)
	if !ok {
		t.Fatal("LinearRegression is not Parameterized")
	}
	if err := p.SetOption("ridge", "0.5"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"-1", "0"} {
		if err := p.SetOption("ridge", v); err == nil {
			t.Errorf("ridge %s accepted", v)
		}
	}
	if err := p.SetOption("nope", "1"); err == nil {
		t.Error("unknown option accepted")
	}
	if _, err := Registry.New("GradientBoost"); err == nil {
		t.Error("unknown regressor constructed")
	}
	k, _ := Registry.New("KNNRegressor")
	kp := k.(algo.Parameterized)
	if err := kp.SetOption("k", "5"); err != nil {
		t.Fatal(err)
	}
	if err := kp.SetOption("distanceWeight", "true"); err != nil {
		t.Fatal(err)
	}
	if err := kp.SetOption("k", "0"); err == nil {
		t.Error("k=0 accepted")
	}
	if len(kp.Options()) == 0 {
		t.Error("KNNRegressor reports no options")
	}
}

// BenchmarkRegress predicts one 1024-row column-first block with each
// regressor trained on 200 rows.
func BenchmarkRegress(b *testing.B) {
	train := regressTestData(b, 200, 4)
	q := regressTestData(b, 1024, 11)
	qc, err := dataset.FromColumns(q.Relation, q.Attrs, q.ClassIndex, q.Columns(), nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []Regressor{&LinearRegression{}, &KNNRegressor{K: 3}} {
		if err := r.Train(train); err != nil {
			b.Fatal(err)
		}
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PredictBatch(r, qc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
