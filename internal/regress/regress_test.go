package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// linearData builds y = 3*x1 - 2*x2 + 5 + noise.
func linearData(n int, noise float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New("lin",
		dataset.NewNumericAttribute("x1"),
		dataset.NewNumericAttribute("x2"),
		dataset.NewNumericAttribute("y"))
	d.ClassIndex = 2
	for i := 0; i < n; i++ {
		x1, x2 := rng.NormFloat64()*2, rng.NormFloat64()*2
		y := 3*x1 - 2*x2 + 5 + rng.NormFloat64()*noise
		d.MustAdd(dataset.NewInstance([]float64{x1, x2, y}))
	}
	return d
}

func TestLinearRegressionRecoversCoefficients(t *testing.T) {
	d := linearData(500, 0.01, 1)
	lr := &LinearRegression{}
	if err := lr.Train(d); err != nil {
		t.Fatal(err)
	}
	// The intercept is the prediction at the origin, and each slope the
	// change a unit step along its attribute makes.
	at := func(x1, x2 float64) float64 {
		y, err := lr.Predict(dataset.NewInstance([]float64{x1, x2, 0}))
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	b := at(0, 0)
	w := []float64{at(1, 0) - b, at(0, 1) - b, b}
	if math.Abs(w[0]-3) > 0.02 || math.Abs(w[1]+2) > 0.02 || math.Abs(w[2]-5) > 0.02 {
		t.Fatalf("coefficients = %v, want [3 -2 5]", w)
	}
	ev := &Evaluation{}
	if err := ev.TestModel(lr, d); err != nil {
		t.Fatal(err)
	}
	if ev.R2() < 0.999 {
		t.Fatalf("R2 = %v", ev.R2())
	}
	if ev.RMSE() > 0.05 {
		t.Fatalf("RMSE = %v", ev.RMSE())
	}
}

func TestLinearRegressionNominalFeatures(t *testing.T) {
	// y depends on a nominal attribute: one-hot encoding must capture it.
	d := dataset.New("nom",
		dataset.NewNominalAttribute("g", "a", "b", "c"),
		dataset.NewNumericAttribute("y"))
	d.ClassIndex = 1
	means := []float64{1, 5, 9}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		g := i % 3
		d.MustAdd(dataset.NewInstance([]float64{float64(g), means[g] + rng.NormFloat64()*0.1}))
	}
	lr := &LinearRegression{}
	if err := lr.Train(d); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 3; g++ {
		p, err := lr.Predict(dataset.NewInstance([]float64{float64(g), dataset.Missing}))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-means[g]) > 0.1 {
			t.Fatalf("group %d predicted %v, want ~%v", g, p, means[g])
		}
	}
	if s := lr.String(); len(s) < 20 {
		t.Fatalf("equation = %q", s)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	lr := &LinearRegression{}
	if _, err := lr.Predict(dataset.NewInstance([]float64{0})); err == nil {
		t.Fatal("untrained Predict succeeded")
	}
	// Nominal class rejected.
	d := dataset.New("bad",
		dataset.NewNumericAttribute("x"),
		dataset.NewNominalAttribute("c", "a", "b"))
	d.ClassIndex = 1
	d.MustAdd(dataset.NewInstance([]float64{1, 0}))
	if err := lr.Train(d); err == nil {
		t.Fatal("nominal class accepted")
	}
	// All-missing targets rejected.
	d2 := linearData(5, 0, 3)
	for _, in := range d2.Instances {
		in.Values[2] = dataset.Missing
	}
	if err := lr.Train(d2); err == nil {
		t.Fatal("all-missing targets accepted")
	}
}

func TestKNNRegressor(t *testing.T) {
	d := linearData(300, 0.1, 4)
	k := &KNNRegressor{K: 5, DistanceWeight: true}
	if err := k.Train(d); err != nil {
		t.Fatal(err)
	}
	ev := &Evaluation{}
	if err := ev.TestModel(k, d); err != nil {
		t.Fatal(err)
	}
	if ev.R2() < 0.97 {
		t.Fatalf("kNN R2 = %v", ev.R2())
	}
	if _, err := (&KNNRegressor{}).Predict(dataset.NewInstance([]float64{0, 0, 0})); err == nil {
		t.Fatal("untrained Predict succeeded")
	}
}

func TestEvaluationMeasures(t *testing.T) {
	e := &Evaluation{}
	e.Record(1, 2) // abs 1, sq 1
	e.Record(3, 1) // abs 2, sq 4
	if math.Abs(e.MAE()-1.5) > 1e-12 {
		t.Fatalf("MAE = %v", e.MAE())
	}
	if math.Abs(e.RMSE()-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("RMSE = %v", e.RMSE())
	}
	// Perfect predictions: R2 = 1.
	p := &Evaluation{}
	p.Record(1, 1)
	p.Record(2, 2)
	p.Record(3, 3)
	if math.Abs(p.R2()-1) > 1e-12 {
		t.Fatalf("perfect R2 = %v", p.R2())
	}
}

// TestOLSResidualOrthogonality: a fundamental OLS property — residuals are
// uncorrelated with each fitted feature (up to the ridge epsilon).
func TestOLSResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		d := linearData(120, 1.0, seed)
		lr := &LinearRegression{}
		if err := lr.Train(d); err != nil {
			return false
		}
		var dot0, dot1, dotC float64
		for _, in := range d.Instances {
			p, err := lr.Predict(in)
			if err != nil {
				return false
			}
			r := in.Values[2] - p
			dot0 += r * in.Values[0]
			dot1 += r * in.Values[1]
			dotC += r
		}
		n := float64(d.NumInstances())
		return math.Abs(dot0/n) < 1e-3 && math.Abs(dot1/n) < 1e-3 && math.Abs(dotC/n) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSingular(t *testing.T) {
	if _, err := solve([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); err == nil {
		t.Fatal("singular system solved")
	}
}
