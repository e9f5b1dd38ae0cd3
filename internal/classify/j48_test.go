package classify

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// TestFigure4TreeRoot asserts the headline result of the paper's case study
// (Figure 4): on the breast-cancer data, C4.5 places node-caps at the root
// of the pruned decision tree, with further structure below it.
func TestFigure4TreeRoot(t *testing.T) {
	d := datagen.BreastCancer()
	j := NewJ48()
	if err := j.Train(d); err != nil {
		t.Fatalf("Train: %v", err)
	}
	root := j.Tree()
	if root == nil || root.Attr < 0 {
		t.Fatal("tree degenerated to a single leaf")
	}
	if root.AttrName != "node-caps" {
		t.Fatalf("root attribute = %q, want node-caps (Figure 4)", root.AttrName)
	}
	// Figure 4 shows structure below node-caps=yes (the deg-malig split).
	yesIdx := -1
	for i, lbl := range root.Labels {
		if lbl == "yes" {
			yesIdx = i
		}
	}
	if yesIdx < 0 {
		t.Fatalf("root labels = %v", root.Labels)
	}
	if root.Children[yesIdx].Attr < 0 {
		t.Fatal("node-caps=yes branch is a bare leaf; Figure 4 has a subtree there")
	}
	if got := root.Children[yesIdx].AttrName; got != "deg-malig" {
		t.Fatalf("subtree under node-caps=yes splits on %q, want deg-malig", got)
	}
	// The textual output (the classify operation's reply) mentions both.
	text := j.String()
	for _, want := range []string{"node-caps = yes", "node-caps = no", "deg-malig",
		"Number of Leaves", "Size of the tree"} {
		if !strings.Contains(text, want) {
			t.Fatalf("textual tree lacks %q:\n%s", want, text)
		}
	}
}

func TestJ48ContactLensesExact(t *testing.T) {
	// contact-lenses is a pure function of its attributes: an unpruned J48
	// must fit it perfectly, rooted at tear-prod-rate.
	d := datagen.ContactLenses()
	j := NewJ48()
	j.Unpruned = true
	j.MinLeaf = 1
	if err := j.Train(d); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if j.Tree().AttrName != "tear-prod-rate" {
		t.Fatalf("root = %q, want tear-prod-rate", j.Tree().AttrName)
	}
	ev, err := NewEvaluation(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.TestModel(j, d); err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy() != 1 {
		t.Fatalf("training accuracy = %v, want 1.0\n%s", ev.Accuracy(), j.String())
	}
}

func TestJ48WeatherOutlookRoot(t *testing.T) {
	// The canonical ID3/C4.5 example: weather.nominal roots at outlook.
	d := datagen.Weather()
	j := NewJ48()
	j.Unpruned = true
	j.MinLeaf = 1
	if err := j.Train(d); err != nil {
		t.Fatal(err)
	}
	if j.Tree().AttrName != "outlook" {
		t.Fatalf("root = %q, want outlook", j.Tree().AttrName)
	}
}

func TestJ48NumericSplit(t *testing.T) {
	d := datagen.WeatherNumeric()
	j := NewJ48()
	j.Unpruned = true
	j.MinLeaf = 1
	if err := j.Train(d); err != nil {
		t.Fatal(err)
	}
	// Must classify its own training data well despite numeric attributes.
	ev, _ := NewEvaluation(d)
	if err := ev.TestModel(j, d); err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy() < 0.85 {
		t.Fatalf("training accuracy = %v\n%s", ev.Accuracy(), j.String())
	}
	// The tree must contain at least one threshold split.
	found := false
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if n == nil {
			return
		}
		if n.Attr >= 0 && n.Numeric {
			found = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(j.Tree())
	if !found {
		t.Fatalf("no numeric split in tree:\n%s", j.String())
	}
}

func TestJ48MissingValuesAtPrediction(t *testing.T) {
	d := datagen.BreastCancer()
	j := NewJ48()
	if err := j.Train(d); err != nil {
		t.Fatal(err)
	}
	// All-missing instance: distribution must still be valid.
	vals := make([]float64, d.NumAttributes())
	for i := range vals {
		vals[i] = dataset.Missing
	}
	dist, err := j.Distribution(dataset.NewInstance(vals))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range dist {
		if p < 0 {
			t.Fatalf("negative probability %v", p)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("distribution sums to %v", sum)
	}
}

func TestJ48PruningReducesSize(t *testing.T) {
	d := datagen.BreastCancer()
	pruned := NewJ48()
	if err := pruned.Train(d); err != nil {
		t.Fatal(err)
	}
	unpruned := NewJ48()
	unpruned.Unpruned = true
	if err := unpruned.Train(d); err != nil {
		t.Fatal(err)
	}
	if pruned.TreeSize() >= unpruned.TreeSize() {
		t.Fatalf("pruning did not shrink the tree: %d >= %d",
			pruned.TreeSize(), unpruned.TreeSize())
	}
}

func TestJ48Options(t *testing.T) {
	j := NewJ48()
	if err := j.SetOption("confidenceFactor", "0.1"); err != nil {
		t.Fatal(err)
	}
	if j.ConfidenceFactor != 0.1 {
		t.Fatal("confidenceFactor not applied")
	}
	if err := j.SetOption("minLeaf", "5"); err != nil {
		t.Fatal(err)
	}
	if err := j.SetOption("unpruned", "true"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]string{
		{"confidenceFactor", "0"}, {"confidenceFactor", "0.9"}, {"confidenceFactor", "x"},
		{"minLeaf", "0"}, {"unpruned", "maybe"}, {"nonsense", "1"},
	} {
		if err := j.SetOption(bad[0], bad[1]); err == nil {
			t.Errorf("SetOption(%q,%q) accepted", bad[0], bad[1])
		}
	}
	if len(j.Options()) != 4 {
		t.Fatalf("Options() lists %d options", len(j.Options()))
	}
	if err := j.SetOption("useInfoGain", "true"); err != nil {
		t.Fatal(err)
	}
	if !j.UseInfoGain {
		t.Fatal("useInfoGain not applied")
	}
}

func TestJ48UntrainedErrors(t *testing.T) {
	j := NewJ48()
	if _, err := j.Distribution(dataset.NewInstance([]float64{0})); err == nil {
		t.Fatal("untrained Distribution succeeded")
	}
	empty := dataset.New("e", dataset.NewNominalAttribute("c", "a", "b"))
	empty.ClassIndex = 0
	if err := j.Train(empty); err == nil {
		t.Fatal("training on empty dataset succeeded")
	}
}

func TestJ48TrainRejectsNumericClass(t *testing.T) {
	d := dataset.New("r", dataset.NewNumericAttribute("x"), dataset.NewNumericAttribute("y"))
	d.ClassIndex = 1
	d.MustAdd(dataset.NewInstance([]float64{1, 2}))
	if err := NewJ48().Train(d); err == nil {
		t.Fatal("numeric class accepted")
	}
}

func TestAddErrsMatchesC45Properties(t *testing.T) {
	// Zero observed errors still add pessimistic mass.
	if got := addErrs(10, 0, 0.25); got <= 0 {
		t.Fatalf("addErrs(10,0) = %v, want > 0", got)
	}
	// More confidence (larger CF) means fewer added errors.
	loose := addErrs(100, 10, 0.5)
	tight := addErrs(100, 10, 0.1)
	if tight <= loose {
		t.Fatalf("tight CF should add more errors: %v <= %v", tight, loose)
	}
	// addErrs is bounded by the remaining instances.
	if got := addErrs(10, 9.8, 0.25); got > 0.3 {
		t.Fatalf("addErrs near saturation = %v", got)
	}
}

func TestNormalInverse(t *testing.T) {
	cases := map[float64]float64{0.5: 0, 0.975: 1.959964, 0.025: -1.959964, 0.75: 0.674490}
	for p, want := range cases {
		got := normalInverse(p)
		if got < want-1e-4 || got > want+1e-4 {
			t.Errorf("normalInverse(%v) = %v, want %v", p, got, want)
		}
	}
}

// TestSplitCriterionAblation: with raw information gain (the ID3 bias), the
// many-valued tumor-size/inv-nodes attributes become competitive with
// node-caps; gain ratio's split-information penalty is what keeps the
// Figure-4 root on the binary node-caps attribute.
func TestSplitCriterionAblation(t *testing.T) {
	d := datagen.BreastCancer()
	ratio := NewJ48()
	if err := ratio.Train(d); err != nil {
		t.Fatal(err)
	}
	ig := NewJ48()
	ig.UseInfoGain = true
	if err := ig.Train(d); err != nil {
		t.Fatal(err)
	}
	if ratio.Tree().AttrName != "node-caps" {
		t.Fatalf("gain-ratio root = %q", ratio.Tree().AttrName)
	}
	// Both criteria must still learn something useful.
	for _, j := range []*J48{ratio, ig} {
		ev, err := NewEvaluation(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.TestModel(j, d); err != nil {
			t.Fatal(err)
		}
		if ev.Accuracy() <= 201.0/286 {
			t.Fatalf("criterion failed to beat baseline: %v", ev.Accuracy())
		}
	}
}

// TestTreeIsAView: Tree builds a copy of the flat tree the model scores
// from, so changing it moves neither Distribution nor the snapshot, and
// the counts and textual tree read off the flat form are the ones the
// pointer tree gave (recorded from the tree that still held one).
func TestTreeIsAView(t *testing.T) {
	d := datagen.BreastCancer()
	for _, tc := range []struct {
		name         string
		unpruned     bool
		size, leaves int
		stringDigest string
	}{
		{"Figure 4", false, 18, 13, "58f1103cd11ec986299205c9ed67a9f867988d20a1ab594407d5982060990ab6"},
		{"unpruned", true, 130, 104, "7eeeadda3361ba5247954dc57e0c4f6c0aab8df73f8f6c2cb0c205c4387812ed"},
	} {
		j := NewJ48()
		j.Unpruned = tc.unpruned
		if err := j.Train(d); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(j.String()))
		if j.TreeSize() != tc.size || j.NumLeaves() != tc.leaves || hex.EncodeToString(sum[:]) != tc.stringDigest {
			t.Errorf("%s: size %d, %d leaves, text digest %x; want %d, %d, %s",
				tc.name, j.TreeSize(), j.NumLeaves(), sum, tc.size, tc.leaves, tc.stringDigest)
		}
		score := func() (dists [][]float64) {
			for _, in := range d.Instances {
				dist, err := j.Distribution(in)
				if err != nil {
					t.Fatal(err)
				}
				dists = append(dists, dist)
			}
			return dists
		}
		wantDists, wantSnap := score(), encodeBody(t, j)
		root := j.Tree()
		var zero func(n *TreeNode)
		zero = func(n *TreeNode) {
			clear(n.Dist)
			for _, c := range n.Children {
				zero(c)
			}
		}
		zero(root)
		root.Children, root.Labels = nil, nil
		for i, dist := range score() {
			for k := range dist {
				if math.Float64bits(dist[k]) != math.Float64bits(wantDists[i][k]) {
					t.Fatalf("%s row %d: %v after changing the view, want %v", tc.name, i, dist, wantDists[i])
				}
			}
		}
		if !bytes.Equal(encodeBody(t, j), wantSnap) {
			t.Errorf("%s: snapshot changed with the view", tc.name)
		}
		if j.Tree().Children == nil {
			t.Errorf("%s: a fresh view lost the root's children", tc.name)
		}
	}
}
