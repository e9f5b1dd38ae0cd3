package classify

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

func trainAcc(t *testing.T, c Classifier, d *dataset.Dataset) float64 {
	t.Helper()
	if err := c.Train(d); err != nil {
		t.Fatalf("%s.Train: %v", c.Name(), err)
	}
	ev, err := NewEvaluation(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.TestModel(c, d); err != nil {
		t.Fatalf("%s eval: %v", c.Name(), err)
	}
	return ev.Accuracy()
}

func TestRegistryListsAllFamilies(t *testing.T) {
	names := Names()
	want := []string{"AdaBoostM1", "Bagging", "DecisionStump", "IBk", "J48",
		"Logistic", "MultilayerPerceptron", "NaiveBayes", "OneR", "Prism",
		"RandomForest", "RandomTree", "ZeroR"}
	if len(names) != len(want) {
		t.Fatalf("registry has %d classifiers: %v", len(names), names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registry[%d] = %q, want %q (sorted)", i, names[i], n)
		}
	}
	for _, n := range names {
		c, err := New(n)
		if err != nil {
			t.Fatalf("New(%s): %v", n, err)
		}
		if c.Name() != n {
			t.Fatalf("New(%s).Name() = %q", n, c.Name())
		}
	}
	if _, err := New("C5.0"); err == nil {
		t.Fatal("unknown classifier constructed")
	}
}

func TestOptionsForEveryClassifier(t *testing.T) {
	for _, n := range Names() {
		opts, err := Registry.Options(n)
		if err != nil {
			t.Fatalf("Registry.Options(%s): %v", n, err)
		}
		for _, o := range opts {
			if o.Name == "" || o.Description == "" {
				t.Fatalf("%s has an anonymous option: %+v", n, o)
			}
		}
	}
}

func TestConfigure(t *testing.T) {
	c, _ := New("IBk")
	if err := Configure(c, map[string]string{"k": "3"}); err != nil {
		t.Fatal(err)
	}
	if c.(*IBk).K != 3 {
		t.Fatal("option not applied")
	}
	if err := Configure(c, map[string]string{"bogus": "1"}); err == nil {
		t.Fatal("unknown option accepted")
	}
	z, _ := New("ZeroR")
	if err := Configure(z, map[string]string{"x": "1"}); err == nil {
		t.Fatal("options accepted by option-less classifier")
	}
	if err := Configure(z, nil); err != nil {
		t.Fatal("empty options rejected")
	}
}

func TestZeroRPredictsMajority(t *testing.T) {
	d := datagen.BreastCancer() // 201 vs 85
	z := &ZeroR{}
	if err := z.Train(d); err != nil {
		t.Fatal(err)
	}
	p, err := Predict(z, d.Instances[0])
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("ZeroR predicts %d, want majority class 0", p)
	}
	dist, _ := z.Distribution(d.Instances[0])
	if math.Abs(dist[0]-201.0/286) > 1e-9 {
		t.Fatalf("prior = %v", dist)
	}
}

func TestZeroRIncremental(t *testing.T) {
	d := datagen.Weather()
	z := &ZeroR{}
	if err := z.Begin(d); err != nil {
		t.Fatal(err)
	}
	for _, in := range d.Instances {
		if err := z.Update(in); err != nil {
			t.Fatal(err)
		}
	}
	batch := &ZeroR{}
	if err := batch.Train(d); err != nil {
		t.Fatal(err)
	}
	di, _ := z.Distribution(d.Instances[0])
	db, _ := batch.Distribution(d.Instances[0])
	for i := range di {
		if math.Abs(di[i]-db[i]) > 1e-12 {
			t.Fatalf("incremental %v != batch %v", di, db)
		}
	}
}

func TestOneRPicksMostPredictiveAttribute(t *testing.T) {
	d := datagen.BreastCancer()
	r := &OneR{minBucket: 6}
	if err := r.Train(d); err != nil {
		t.Fatal(err)
	}
	// node-caps (col 4) and deg-malig (col 5) are the informative columns.
	if a := r.Attribute(); a != 4 && a != 5 {
		t.Fatalf("OneR chose column %d (%s)", a, d.Attrs[a].Name)
	}
	if acc := trainAcc(t, &OneR{minBucket: 6}, d); acc <= 201.0/286 {
		t.Fatalf("OneR accuracy %v no better than ZeroR", acc)
	}
}

func TestOneRNumeric(t *testing.T) {
	// A numeric attribute perfectly split at 0 must be learnable.
	d := dataset.New("n", dataset.NewNumericAttribute("x"),
		dataset.NewNominalAttribute("c", "neg", "pos"))
	d.ClassIndex = 1
	for i := -20; i < 20; i++ {
		cls := 0.0
		if i >= 0 {
			cls = 1
		}
		d.MustAdd(dataset.NewInstance([]float64{float64(i), cls}))
	}
	r := &OneR{minBucket: 6}
	if acc := trainAcc(t, r, d); acc != 1 {
		t.Fatalf("OneR accuracy on linearly separable numeric data = %v", acc)
	}
}

func TestNaiveBayesBeatsBaseline(t *testing.T) {
	d := datagen.BreastCancer()
	acc := trainAcc(t, &NaiveBayes{}, d)
	if acc <= 201.0/286.0 {
		t.Fatalf("NaiveBayes accuracy %v not above majority baseline", acc)
	}
}

func TestNaiveBayesIncrementalEqualsBatch(t *testing.T) {
	d := datagen.WeatherNumeric()
	inc := &NaiveBayes{}
	if err := inc.Begin(d); err != nil {
		t.Fatal(err)
	}
	for _, in := range d.Instances {
		if err := inc.Update(in); err != nil {
			t.Fatal(err)
		}
	}
	batch := &NaiveBayes{}
	if err := batch.Train(d); err != nil {
		t.Fatal(err)
	}
	for _, in := range d.Instances {
		di, _ := inc.Distribution(in)
		db, _ := batch.Distribution(in)
		for i := range di {
			if math.Abs(di[i]-db[i]) > 1e-9 {
				t.Fatalf("incremental %v != batch %v", di, db)
			}
		}
	}
}

func TestNaiveBayesGaussianLikelihood(t *testing.T) {
	// Two well-separated numeric classes: NB must be near-perfect.
	d := datagen.GaussianClusters(2, 200, 2, 8, 23)
	if acc := trainAcc(t, &NaiveBayes{}, d); acc < 0.99 {
		t.Fatalf("NB on separated gaussians = %v", acc)
	}
}

func TestIBkNearestNeighbour(t *testing.T) {
	d := datagen.GaussianClusters(2, 100, 2, 8, 29)
	k := &IBk{K: 1}
	if acc := trainAcc(t, k, d); acc != 1 {
		t.Fatalf("1-NN training accuracy = %v, want 1 (self-match)", acc)
	}
	if k.NumCases() != 100 {
		t.Fatalf("case base = %d", k.NumCases())
	}
	k3 := &IBk{K: 3, DistanceWeight: true}
	if acc := trainAcc(t, k3, d); acc < 0.97 {
		t.Fatalf("3-NN accuracy = %v", acc)
	}
}

func TestIBkMixedAttributes(t *testing.T) {
	d := datagen.Weather()
	if acc := trainAcc(t, &IBk{K: 1}, d); acc != 1 {
		t.Fatalf("1-NN on nominal data = %v", acc)
	}
}

func TestLogisticSeparable(t *testing.T) {
	d := datagen.GaussianClusters(2, 200, 2, 6, 31)
	l := &Logistic{Epochs: 50, LearningRate: 0.1, Lambda: 1e-4, Seed: 1}
	if acc := trainAcc(t, l, d); acc < 0.98 {
		t.Fatalf("logistic on separable data = %v", acc)
	}
}

func TestLogisticMulticlass(t *testing.T) {
	d := datagen.IrisLike(40, 37)
	l := &Logistic{Epochs: 80, LearningRate: 0.1, Lambda: 1e-4, Seed: 1}
	if acc := trainAcc(t, l, d); acc < 0.9 {
		t.Fatalf("logistic on iris-like = %v", acc)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	// XOR is not linearly separable; a hidden layer is required — the
	// sharpest functional test of backpropagation.
	d := dataset.New("xor",
		dataset.NewNumericAttribute("a"),
		dataset.NewNumericAttribute("b"),
		dataset.NewNominalAttribute("c", "off", "on"))
	d.ClassIndex = 2
	for i := 0; i < 40; i++ {
		a, b := float64(i%2), float64((i/2)%2)
		cls := 0.0
		if a != b {
			cls = 1
		}
		d.MustAdd(dataset.NewInstance([]float64{a, b, cls}))
	}
	m := &MLP{Hidden: 8, LearningRate: 0.5, Momentum: 0.2, Epochs: 600, Seed: 3}
	if acc := trainAcc(t, m, d); acc != 1 {
		t.Fatalf("MLP on XOR = %v, want 1.0", acc)
	}
}

func TestMLPOptionsMatchPaper(t *testing.T) {
	// §4.4: "the number of neurons in the hidden layer, the momentum and
	// the learning rate" must be exposed as run-time options.
	m := &MLP{}
	names := map[string]bool{}
	for _, o := range m.Options() {
		names[o.Name] = true
	}
	for _, want := range []string{"hiddenNeurons", "momentum", "learningRate"} {
		if !names[want] {
			t.Fatalf("MLP options lack %q (have %v)", want, names)
		}
	}
}

func TestDecisionStumpSingleSplit(t *testing.T) {
	d := datagen.BreastCancer()
	s := &DecisionStump{}
	if err := s.Train(d); err != nil {
		t.Fatal(err)
	}
	if s.Attribute() < 0 {
		t.Fatal("stump degenerated to a leaf")
	}
	if got := d.Attrs[s.Attribute()].Name; got != "node-caps" && got != "deg-malig" {
		t.Fatalf("stump splits on %q", got)
	}
}

func TestRandomTreeAndForest(t *testing.T) {
	d := datagen.IrisLike(40, 41)
	rt := &RandomTree{Seed: 1, MinLeaf: 1}
	if acc := trainAcc(t, rt, d); acc < 0.9 {
		t.Fatalf("RandomTree = %v", acc)
	}
	f, _ := New("RandomForest")
	if acc := trainAcc(t, f, d); acc < 0.95 {
		t.Fatalf("RandomForest = %v", acc)
	}
}

func TestBaggingImprovesOverSingleTree(t *testing.T) {
	d := datagen.RandomNominal(300, 8, 3, 0.25, 43)
	cvTree, err := CrossValidateContext(context.Background(), func() Classifier {
		j := NewJ48()
		j.Unpruned = true
		return j
	}, d, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cvBag, err := CrossValidateContext(context.Background(), func() Classifier {
		return &Bagging{Size: 15, Seed: 1}
	}, d, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Bagging should not be dramatically worse; usually better on noisy data.
	if cvBag.Accuracy() < cvTree.Accuracy()-0.05 {
		t.Fatalf("bagging %v much worse than tree %v", cvBag.Accuracy(), cvTree.Accuracy())
	}
}

func TestAdaBoostBeatsStump(t *testing.T) {
	d := datagen.BreastCancer()
	stumpCV, err := CrossValidateContext(context.Background(), func() Classifier { return &DecisionStump{} }, d, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	boostCV, err := CrossValidateContext(context.Background(), func() Classifier { return &AdaBoostM1{Rounds: 15, Seed: 2} }, d, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if boostCV.Accuracy() < stumpCV.Accuracy()-0.03 {
		t.Fatalf("boosting %v worse than its stump %v", boostCV.Accuracy(), stumpCV.Accuracy())
	}
}

// TestDistributionProperty: every trained classifier returns a valid
// probability distribution for arbitrary (even partially missing) inputs.
func TestDistributionProperty(t *testing.T) {
	d := datagen.WeatherNumeric()
	models := []Classifier{}
	for _, n := range []string{"ZeroR", "OneR", "NaiveBayes", "J48", "IBk", "DecisionStump"} {
		c, _ := New(n)
		if err := c.Train(d); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		models = append(models, c)
	}
	f := func(outlook, temp, humid uint8, windy bool, missMask uint8) bool {
		vals := []float64{
			float64(outlook % 3),
			float64(temp%40) + 50,
			float64(humid%40) + 60,
			0,
			dataset.Missing,
		}
		if windy {
			vals[3] = 1
		}
		for bit := 0; bit < 4; bit++ {
			if missMask&(1<<bit) != 0 {
				vals[bit] = dataset.Missing
			}
		}
		in := dataset.NewInstance(vals)
		for _, m := range models {
			dist, err := m.Distribution(in)
			if err != nil {
				return false
			}
			var sum float64
			for _, p := range dist {
				if p < -1e-9 || math.IsNaN(p) {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
