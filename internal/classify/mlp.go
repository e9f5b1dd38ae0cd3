package classify

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/algo"
	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// mlp is a single-hidden-layer multilayer perceptron trained with
// backpropagation. Its run-time options are exactly the ones the paper's
// §4.4 walkthrough names for the neural-network backpropagation algorithm:
// "the number of neurons in the hidden layer, the momentum and the learning
// rate".
type mlp struct {
	Hidden       int
	LearningRate float64
	Momentum     float64
	Epochs       int
	Seed         int64

	enc        *encoder
	numClasses int
	// w1[h][f], b1[h]: input -> hidden; w2[c][h], b2[c]: hidden -> output.
	w1, w2     [][]float64
	b1, b2     []float64
	dw1p, dw2p [][]float64 // previous updates for momentum
	db1p, db2p []float64
}

func init() {
	register("MultilayerPerceptron", func() Classifier {
		return &mlp{Hidden: 8, LearningRate: 0.3, Momentum: 0.2, Epochs: 200, Seed: 1}
	})
}

// Name implements Classifier.
func (m *mlp) Name() string { return "MultilayerPerceptron" }

// Snapshot codes the trained model for the model store.
func (m *mlp) Snapshot(c binfmt.Codec) {
	c.Int(&m.Hidden)
	c.F64(&m.LearningRate)
	c.F64(&m.Momentum)
	c.Int(&m.Epochs)
	c.Int64(&m.Seed)
	if !c.Has(m.enc != nil) {
		return
	}
	codeEncoder(c, &m.enc)
	c.F64s(&m.b1)
	if c.F64s(&m.b2); c.Reading() {
		m.numClasses = len(m.b2)
	}
	c.F64Rows(&m.w1, m.enc.width)
	c.F64Rows(&m.w2, m.Hidden)
	if len(m.b1) != m.Hidden || len(m.w1) != m.Hidden || len(m.w2) != m.numClasses {
		c.Failf("MultilayerPerceptron layers do not match %d hidden units and %d classes", m.Hidden, m.numClasses)
	}
}

// Options implements algo.Parameterized.
func (m *mlp) Options() []option {
	return []option{
		algo.Int("hiddenNeurons", "number of neurons in the hidden layer", &m.Hidden, 1),
		algo.Float("learningRate", "backpropagation learning rate", &m.LearningRate, algo.Above(0)),
		algo.Float("momentum", "backpropagation momentum", &m.Momentum, algo.AtLeast(0).Below(1)),
		algo.Int("epochs", "training passes", &m.Epochs, 1),
		algo.Seed("seed", "weight initialisation seed", &m.Seed),
	}
}

// SetOption implements algo.Parameterized.
func (m *mlp) SetOption(name, value string) error { return Registry.Set(m, name, value) }

// Train implements Classifier.
func (m *mlp) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	d = d.DeleteWithMissingClass()
	m.enc = newEncoder(d)
	m.numClasses = d.NumClasses()
	rng := rand.New(rand.NewSource(m.Seed))
	init2 := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				w[i][j] = (rng.Float64() - 0.5) / 2
			}
		}
		return w
	}
	zeros2 := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
		}
		return w
	}
	m.w1, m.w2 = init2(m.Hidden, m.enc.width), init2(m.numClasses, m.Hidden)
	m.b1, m.b2 = make([]float64, m.Hidden), make([]float64, m.numClasses)
	m.dw1p, m.dw2p = zeros2(m.Hidden, m.enc.width), zeros2(m.numClasses, m.Hidden)
	m.db1p, m.db2p = make([]float64, m.Hidden), make([]float64, m.numClasses)

	x := make([]float64, m.enc.width)
	h := make([]float64, m.Hidden)
	o := make([]float64, m.numClasses)
	deltaO := make([]float64, m.numClasses)
	deltaH := make([]float64, m.Hidden)
	order := rng.Perm(d.NumInstances())
	for epoch := 0; epoch < m.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			in := d.Instances[idx]
			m.enc.encode(in, x)
			m.forward(x, h, o)
			y := int(in.Values[d.ClassIndex])
			for c := range o {
				target := 0.0
				if c == y {
					target = 1
				}
				deltaO[c] = (o[c] - target) * in.Weight
			}
			for j := range h {
				var s float64
				for c := range deltaO {
					s += deltaO[c] * m.w2[c][j]
				}
				deltaH[j] = s * h[j] * (1 - h[j])
			}
			lr, mom := m.LearningRate, m.Momentum
			for c := range deltaO {
				for j := range h {
					upd := -lr*deltaO[c]*h[j] + mom*m.dw2p[c][j]
					m.w2[c][j] += upd
					m.dw2p[c][j] = upd
				}
				upd := -lr*deltaO[c] + mom*m.db2p[c]
				m.b2[c] += upd
				m.db2p[c] = upd
			}
			for j := range deltaH {
				if deltaH[j] == 0 {
					continue
				}
				w := m.w1[j]
				prev := m.dw1p[j]
				for f, xv := range x {
					upd := mom * prev[f]
					if xv != 0 {
						upd += -lr * deltaH[j] * xv
					}
					w[f] += upd
					prev[f] = upd
				}
				upd := -lr*deltaH[j] + mom*m.db1p[j]
				m.b1[j] += upd
				m.db1p[j] = upd
			}
		}
	}
	return nil
}

func (m *mlp) forward(x, h, o []float64) {
	for j := range h {
		s := m.b1[j]
		w := m.w1[j]
		for f, xv := range x {
			if xv != 0 {
				s += w[f] * xv
			}
		}
		h[j] = sigmoid(s)
	}
	for c := range o {
		s := m.b2[c]
		w := m.w2[c]
		for j, hv := range h {
			s += w[j] * hv
		}
		o[c] = s
	}
	softmaxInPlace(o)
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Distribution implements Classifier.
func (m *mlp) Distribution(in *dataset.Instance) ([]float64, error) {
	if m.enc == nil {
		return nil, fmt.Errorf("classify: MultilayerPerceptron is untrained")
	}
	x := make([]float64, m.enc.width)
	m.enc.encode(in, x)
	h := make([]float64, m.Hidden)
	o := make([]float64, m.numClasses)
	m.forward(x, h, o)
	return o, nil
}
