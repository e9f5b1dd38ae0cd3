package classify

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/binfmt"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// RandomTree grows an unpruned decision tree considering a random subset of
// sqrt(#attributes) candidates at each split; the building block of
// RandomForest.
type RandomTree struct {
	Seed    int64
	MinLeaf float64

	treeModel
	rng *rand.Rand
}

func init() {
	Register("RandomTree", func() Classifier { return &RandomTree{Seed: 1, MinLeaf: 1} })
}

// Name implements Classifier.
func (t *RandomTree) Name() string { return "RandomTree" }

// Snapshot codes the trained model for the model store.
func (t *RandomTree) Snapshot(c binfmt.Codec) {
	c.Int64(&t.Seed)
	c.F64(&t.MinLeaf)
	t.treeModel.snapshot(c)
}

// Train implements Classifier.
func (t *RandomTree) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	d = d.DeleteWithMissingClass()
	t.classAttr = d.ClassAttribute()
	t.classIndex = d.ClassIndex
	t.rng = rand.New(rand.NewSource(t.Seed))
	work := make([]*dataset.Instance, d.NumInstances())
	copy(work, d.Instances)
	t.flatten(t.grow(d, work, 0))
	return nil
}

func (t *RandomTree) grow(d *dataset.Dataset, ins []*dataset.Instance, depth int) *TreeNode {
	node := newLeaf(classDist(ins, t.classIndex, t.classAttr.NumValues()))
	total := sum(node.Dist)
	if total < 2*t.MinLeaf || node.Dist[node.ClassIdx] == total || depth > 40 {
		return node
	}
	// Candidate attributes: a random sqrt-sized subset.
	var candidates []int
	for col := range d.Attrs {
		if col != t.classIndex && !d.Attrs[col].IsString() {
			candidates = append(candidates, col)
		}
	}
	t.rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	m := min(int(math.Sqrt(float64(len(candidates))))+1, len(candidates))
	helper := &J48{MinLeaf: t.MinLeaf, ConfidenceFactor: 0.25, treeModel: treeModel{classAttr: t.classAttr, classIndex: t.classIndex}}
	baseH := dataset.Entropy(node.Dist)
	totalW := weightOf(ins)
	bestAttr, bestTh, bestGain := -1, 0.0, 0.0
	for _, col := range candidates[:m] {
		a := d.Attrs[col]
		var g, th float64
		if a.IsNominal() {
			g, _ = helper.nominalGain(ins, col, a.NumValues(), baseH, totalW)
		} else {
			g, _, th = helper.numericGain(ins, col, baseH, totalW)
		}
		if g > bestGain {
			bestAttr, bestTh, bestGain = col, th, g
		}
	}
	if bestAttr < 0 {
		return node
	}
	branches, labels := helper.partition(d, ins, bestAttr, bestTh)
	nonEmpty := 0
	for _, b := range branches {
		if len(b) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return node
	}
	return node.split(d.Attrs[bestAttr], bestAttr, bestTh, labels, branches,
		func(b []*dataset.Instance) *TreeNode { return t.grow(d, b, depth+1) })
}

// Distribution implements Classifier.
func (t *RandomTree) Distribution(in *dataset.Instance) ([]float64, error) {
	return t.distribution(t.Name(), in, nil)
}

// Bagging trains Size base classifiers on bootstrap resamples and averages
// their distributions. Base models train in parallel across goroutines —
// the "multiple computational resources" idea of Grid WEKA realised on a
// shared-memory host. Each member draws its bootstrap sample from its
// own RNG seeded by parallel.DeriveSeed(Seed, i), so member i's model is
// reproducible regardless of training order or GOMAXPROCS.
type Bagging struct {
	Size int
	Seed int64
	// Base constructs each base learner; defaults to unpruned J48.
	Base func() Classifier

	members []Classifier
}

func init() { Register("Bagging", func() Classifier { return &Bagging{Size: 10, Seed: 1} }) }

// Name implements Classifier.
func (b *Bagging) Name() string { return "Bagging" }

// Options implements Parameterized.
func (b *Bagging) Options() []Option {
	return []Option{
		{Name: "size", Description: "number of bagged models", Default: "10"},
		{Name: "seed", Description: "bootstrap seed", Default: "1"},
	}
}

// SetOption implements Parameterized.
func (b *Bagging) SetOption(name, value string) error {
	switch name {
	case "size":
		n, err := strconv.Atoi(value)
		if err != nil || n < 1 {
			return fmt.Errorf("classify: Bagging size must be a positive integer, got %q", value)
		}
		b.Size = n
	case "seed":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("classify: Bagging seed must be an integer, got %q", value)
		}
		b.Seed = n
	default:
		return fmt.Errorf("classify: Bagging has no option %q", name)
	}
	return nil
}

// Train implements Classifier.
func (b *Bagging) Train(d *dataset.Dataset) error {
	return b.TrainContext(context.Background(), d)
}

// TrainContext implements ContextTrainer: member training stops promptly
// once ctx is cancelled.
func (b *Bagging) TrainContext(ctx context.Context, d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	base := b.Base
	if base == nil {
		base = func() Classifier {
			j := NewJ48()
			j.Unpruned = true
			return j
		}
	}
	members := make([]Classifier, b.Size)
	err := parallel.ForEach(ctx, b.Size, func(i int) error {
		seed := parallel.DeriveSeed(b.Seed, i)
		rng := rand.New(rand.NewSource(seed))
		sample := dataset.ResampleView(d, d.NumInstances(), rng).Materialize()
		m := base()
		if rt, ok := m.(*RandomTree); ok {
			rt.Seed = seed
		}
		if err := m.Train(sample); err != nil {
			return fmt.Errorf("classify: Bagging member %d failed: %w", i, err)
		}
		members[i] = m
		return nil
	})
	if err != nil {
		return err
	}
	b.members = members
	return nil
}

// Distribution implements Classifier: the members' votes summed in
// member order. Polling them in parallel costs more per row than it saves.
func (b *Bagging) Distribution(in *dataset.Instance) ([]float64, error) {
	if len(b.members) == 0 {
		return nil, fmt.Errorf("classify: Bagging is untrained")
	}
	var out, scratch []float64
	for _, m := range b.members {
		var dist []float64
		var err error
		if t, ok := m.(treeHolder); ok {
			// A tree member scores into one scratch reused across members.
			dist, err = t.tree().distribution(m.Name(), in, scratch)
			scratch = dist
		} else {
			dist, err = m.Distribution(in)
		}
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = make([]float64, len(dist))
		}
		if len(dist) != len(out) {
			return nil, fmt.Errorf("classify: Bagging members disagree on the class count (%d, %d)", len(out), len(dist))
		}
		for c, p := range dist {
			out[c] += p
		}
	}
	return normalize(out), nil
}

// Snapshot codes the trained model for the model store.
func (b *Bagging) Snapshot(c binfmt.Codec) {
	c.Int(&b.Size)
	c.Int64(&b.Seed)
	var reserved int // was the parallelism setting: written as 0, ignored on read
	c.Signed(&reserved)
	codeMembers(c, &b.members)
}

// RandomForest is Bagging over RandomTree members.
type RandomForest struct {
	Bagging
}

func init() {
	Register("RandomForest", func() Classifier {
		f := &RandomForest{}
		f.Size = 20
		f.Seed = 1
		f.Base = func() Classifier { return &RandomTree{Seed: 1, MinLeaf: 1} }
		return f
	})
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "RandomForest" }

// Options implements Parameterized: Bagging's options, advertising the
// forest's own default of 20 trees.
func (f *RandomForest) Options() []Option {
	opts := f.Bagging.Options()
	opts[0].Default = "20"
	return opts
}

// AdaBoostM1 implements the AdaBoost.M1 boosting meta-algorithm over
// decision stumps (or any supplied base learner).
type AdaBoostM1 struct {
	Rounds int
	Seed   int64
	Base   func() Classifier

	members []Classifier
	alphas  []float64
	numCls  int
}

func init() { Register("AdaBoostM1", func() Classifier { return &AdaBoostM1{Rounds: 10, Seed: 1} }) }

// Name implements Classifier.
func (a *AdaBoostM1) Name() string { return "AdaBoostM1" }

// Snapshot codes the trained model for the model store.
func (a *AdaBoostM1) Snapshot(c binfmt.Codec) {
	c.Int(&a.Rounds)
	c.Int64(&a.Seed)
	// Scoring sizes its votes by the class count: hold it to the input.
	c.Count(&a.numCls, 1)
	c.F64s(&a.alphas)
	if codeMembers(c, &a.members); len(a.members) != len(a.alphas) {
		c.Failf("AdaBoostM1 has %d members for %d weights", len(a.members), len(a.alphas))
	}
}

// Options implements Parameterized.
func (a *AdaBoostM1) Options() []Option {
	return []Option{
		{Name: "rounds", Description: "number of boosting rounds", Default: "10"},
		{Name: "seed", Description: "resampling seed", Default: "1"},
	}
}

// SetOption implements Parameterized.
func (a *AdaBoostM1) SetOption(name, value string) error {
	switch name {
	case "rounds":
		n, err := strconv.Atoi(value)
		if err != nil || n < 1 {
			return fmt.Errorf("classify: AdaBoostM1 rounds must be a positive integer, got %q", value)
		}
		a.Rounds = n
	case "seed":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("classify: AdaBoostM1 seed must be an integer, got %q", value)
		}
		a.Seed = n
	default:
		return fmt.Errorf("classify: AdaBoostM1 has no option %q", name)
	}
	return nil
}

// Train implements Classifier.
func (a *AdaBoostM1) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	d = d.DeleteWithMissingClass()
	base := a.Base
	if base == nil {
		base = func() Classifier { return &DecisionStump{} }
	}
	a.numCls = d.NumClasses()
	// Boost on a weighted copy.
	work := d.CloneSchema()
	for _, in := range d.Instances {
		work.Instances = append(work.Instances, in.Clone())
	}
	// Weights sum to n (not 1): J48-family base learners compare branch
	// mass against MinLeaf in absolute terms.
	n := float64(work.NumInstances())
	for _, in := range work.Instances {
		in.Weight = 1
	}
	a.members = a.members[:0]
	a.alphas = a.alphas[:0]
	for round := 0; round < a.Rounds; round++ {
		m := base()
		if err := m.Train(work); err != nil {
			return fmt.Errorf("classify: AdaBoostM1 round %d: %w", round, err)
		}
		var errW float64
		preds := make([]int, work.NumInstances())
		for i, in := range work.Instances {
			p, err := Predict(m, in)
			if err != nil {
				return err
			}
			preds[i] = p
			if p != int(in.Values[work.ClassIndex]) {
				errW += in.Weight
			}
		}
		errW /= n
		if errW >= 0.5 {
			break // weak learner no better than chance: stop boosting
		}
		if errW < 1e-10 {
			a.members = append(a.members, m)
			a.alphas = append(a.alphas, 10) // effectively perfect learner
			break
		}
		beta := errW / (1 - errW)
		a.members = append(a.members, m)
		a.alphas = append(a.alphas, math.Log(1/beta))
		var total float64
		for i, in := range work.Instances {
			if preds[i] == int(in.Values[work.ClassIndex]) {
				in.Weight *= beta
			}
			total += in.Weight
		}
		scale := n / total
		for _, in := range work.Instances {
			in.Weight *= scale
		}
	}
	if len(a.members) == 0 {
		// Fall back to a single base model trained on uniform weights.
		m := base()
		if err := m.Train(d); err != nil {
			return err
		}
		a.members = append(a.members, m)
		a.alphas = append(a.alphas, 1)
	}
	return nil
}

// Distribution implements Classifier.
func (a *AdaBoostM1) Distribution(in *dataset.Instance) ([]float64, error) {
	if len(a.members) == 0 {
		return nil, fmt.Errorf("classify: AdaBoostM1 is untrained")
	}
	votes := make([]float64, a.numCls)
	for i, m := range a.members {
		p, err := Predict(m, in)
		if err != nil {
			return nil, err
		}
		if p >= len(votes) {
			return nil, fmt.Errorf("classify: AdaBoostM1 member voted for class %d of %d", p, len(votes))
		}
		votes[p] += a.alphas[i]
	}
	return normalize(votes), nil
}
