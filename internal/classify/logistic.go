package classify

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/algo"
	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// encoder maps a mixed instance onto a dense numeric feature vector:
// numerics are standardised, nominals are one-hot encoded, missing cells
// become zeros (the standardised mean / all-cold encoding).
type encoder struct {
	schema *dataset.Dataset
	offset []int // feature offset per column (-1 for class/string columns)
	width  int
	mean   []float64
	std    []float64
}

func newEncoder(d *dataset.Dataset) *encoder {
	e := &encoder{schema: d, offset: make([]int, d.NumAttributes())}
	for col, a := range d.Attrs {
		e.offset[col] = -1
		if col == d.ClassIndex || a.IsString() {
			continue
		}
		e.offset[col] = e.width
		if a.IsNumeric() {
			e.width++
		} else {
			e.width += a.NumValues()
		}
	}
	e.mean = make([]float64, d.NumAttributes())
	e.std = make([]float64, d.NumAttributes())
	for col, a := range d.Attrs {
		if e.offset[col] < 0 || !a.IsNumeric() {
			continue
		}
		var s, ss, n float64
		for _, in := range d.Instances {
			v := in.Values[col]
			if dataset.IsMissing(v) {
				continue
			}
			s += v
			ss += v * v
			n++
		}
		if n > 0 {
			e.mean[col] = s / n
			variance := ss/n - e.mean[col]*e.mean[col]
			if variance > 1e-12 {
				e.std[col] = math.Sqrt(variance)
			}
		}
	}
	return e
}

// codeEncoder codes the feature encoder: its schema, from which a restored
// encoder lays out its features, then the moments.
func codeEncoder(c binfmt.Codec, e **encoder) {
	var schema *dataset.Dataset
	if !c.Reading() {
		schema = (*e).schema
	}
	if codeSchema(c, &schema); c.Reading() {
		*e = newEncoder(schema)
	}
	c.F64s(&(*e).mean)
	c.F64s(&(*e).std)
	if m := schema.NumAttributes(); len((*e).mean) != m || len((*e).std) != m {
		c.Failf("feature encoder has %d means and %d deviations for %d attributes", len((*e).mean), len((*e).std), m)
	}
}

func (e *encoder) encode(in *dataset.Instance, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for col, a := range e.schema.Attrs {
		off := e.offset[col]
		if off < 0 || col >= len(in.Values) {
			continue
		}
		v := in.Values[col]
		if dataset.IsMissing(v) {
			continue
		}
		if a.IsNumeric() {
			if e.std[col] > 0 {
				out[off] = (v - e.mean[col]) / e.std[col]
			} else {
				out[off] = v - e.mean[col]
			}
		} else {
			idx := int(v)
			if idx >= 0 && idx < a.NumValues() {
				out[off+idx] = 1
			}
		}
	}
}

// logistic is a multinomial logistic-regression classifier trained with
// mini-batch-free SGD and L2 regularisation over one-hot encoded features.
type logistic struct {
	Epochs       int
	LearningRate float64
	Lambda       float64
	Seed         int64

	enc        *encoder
	weights    [][]float64 // [class][feature]
	bias       []float64
	numClasses int
}

func init() {
	register("Logistic", func() Classifier {
		return &logistic{Epochs: 100, LearningRate: 0.1, Lambda: 1e-4, Seed: 1}
	})
}

// Name implements Classifier.
func (l *logistic) Name() string { return "Logistic" }

// Snapshot codes the trained model for the model store.
func (l *logistic) Snapshot(c binfmt.Codec) {
	c.Int(&l.Epochs)
	c.F64(&l.LearningRate)
	c.F64(&l.Lambda)
	c.Int64(&l.Seed)
	if !c.Has(l.enc != nil) {
		return
	}
	codeEncoder(c, &l.enc)
	if c.F64s(&l.bias); c.Reading() {
		l.numClasses = len(l.bias)
	}
	if c.F64Rows(&l.weights, l.enc.width); len(l.weights) != l.numClasses {
		c.Failf("Logistic has %d weight rows for %d classes", len(l.weights), l.numClasses)
	}
}

// Options implements algo.Parameterized.
func (l *logistic) Options() []option {
	return []option{
		algo.Int("epochs", "SGD passes over the data", &l.Epochs, 1),
		algo.Float("learningRate", "SGD step size", &l.LearningRate, algo.Above(0)),
		algo.Float("lambda", "L2 regularisation strength", &l.Lambda, algo.AtLeast(0)),
		algo.Seed("seed", "shuffle seed", &l.Seed),
	}
}

// SetOption implements algo.Parameterized.
func (l *logistic) SetOption(name, value string) error { return Registry.Set(l, name, value) }

// Train implements Classifier.
func (l *logistic) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	d = d.DeleteWithMissingClass()
	l.enc = newEncoder(d)
	l.numClasses = d.NumClasses()
	l.weights = make([][]float64, l.numClasses)
	for c := range l.weights {
		l.weights[c] = make([]float64, l.enc.width)
	}
	l.bias = make([]float64, l.numClasses)

	rng := rand.New(rand.NewSource(l.Seed))
	x := make([]float64, l.enc.width)
	logits := make([]float64, l.numClasses)
	order := rng.Perm(d.NumInstances())
	for epoch := 0; epoch < l.Epochs; epoch++ {
		lr := l.LearningRate / (1 + 0.01*float64(epoch))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			in := d.Instances[idx]
			l.enc.encode(in, x)
			l.forward(x, logits)
			softmaxInPlace(logits)
			y := int(in.Values[d.ClassIndex])
			for c := 0; c < l.numClasses; c++ {
				g := logits[c]
				if c == y {
					g -= 1
				}
				g *= in.Weight
				w := l.weights[c]
				for f, xv := range x {
					if xv != 0 {
						w[f] -= lr * (g*xv + l.Lambda*w[f])
					}
				}
				l.bias[c] -= lr * g
			}
		}
	}
	return nil
}

func (l *logistic) forward(x, logits []float64) {
	for c := 0; c < l.numClasses; c++ {
		s := l.bias[c]
		w := l.weights[c]
		for f, xv := range x {
			if xv != 0 {
				s += w[f] * xv
			}
		}
		logits[c] = s
	}
}

func softmaxInPlace(z []float64) {
	max := math.Inf(-1)
	for _, v := range z {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range z {
		z[i] = math.Exp(v - max)
		sum += z[i]
	}
	for i := range z {
		z[i] /= sum
	}
}

// Distribution implements Classifier.
func (l *logistic) Distribution(in *dataset.Instance) ([]float64, error) {
	if l.enc == nil {
		return nil, fmt.Errorf("classify: Logistic is untrained")
	}
	x := make([]float64, l.enc.width)
	l.enc.encode(in, x)
	out := make([]float64, l.numClasses)
	l.forward(x, out)
	softmaxInPlace(out)
	return out, nil
}
