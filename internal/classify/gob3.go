package classify

import (
	"bytes"
	"encoding/gob"

	"repro/internal/dataset"
)

// This file completes the serialisation path the model store needs: every
// registered classifier gets a durable gob form, so a snapshot of any
// trained instance can be written to the content-addressed store and
// resumed by another replica. gob.go/gob2.go cover the original six
// algorithms; the mirrors here cover the encoder-based learners
// (Logistic, MultilayerPerceptron), DecisionStump, and the ensembles
// (RandomTree, Bagging/RandomForest, AdaBoostM1). Training-only state —
// RNGs, base-learner factories, momentum scratch — is deliberately not
// serialised: a restored model predicts, it does not resume training.

func init() {
	// Ensemble members travel as Classifier interface values inside the
	// wire structs below, which needs their concrete types registered.
	gob.Register(&J48{})
	gob.Register(&RandomTree{})
	gob.Register(&DecisionStump{})
	gob.Register(&NaiveBayes{})
	gob.Register(&ZeroR{})
	gob.Register(&OneR{})
}

// encoderWire mirrors the feature encoder. The schema travels without
// instances: encode only needs attribute kinds, offsets and moments.
type encoderWire struct {
	Schema *dataset.Dataset
	Offset []int
	Width  int
	Mean   []float64
	Std    []float64
}

func encoderToWire(e *encoder) *encoderWire {
	if e == nil {
		return nil
	}
	return &encoderWire{
		Schema: e.schema.ShallowWith(nil),
		Offset: e.offset, Width: e.width, Mean: e.mean, Std: e.std,
	}
}

func encoderFromWire(w *encoderWire) *encoder {
	if w == nil {
		return nil
	}
	return &encoder{schema: w.Schema, offset: w.Offset, width: w.Width, mean: w.Mean, std: w.Std}
}

type stumpWire struct {
	Inner *J48
}

// GobEncode implements gob.GobEncoder.
func (s *DecisionStump) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(stumpWire{Inner: s.inner})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (s *DecisionStump) GobDecode(b []byte) error {
	var w stumpWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	s.inner = w.Inner
	return nil
}

type logisticWire struct {
	Epochs       int
	LearningRate float64
	Lambda       float64
	Seed         int64
	Enc          *encoderWire
	Weights      [][]float64
	Bias         []float64
	NumClasses   int
}

// GobEncode implements gob.GobEncoder.
func (l *Logistic) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(logisticWire{
		Epochs: l.Epochs, LearningRate: l.LearningRate, Lambda: l.Lambda, Seed: l.Seed,
		Enc: encoderToWire(l.enc), Weights: l.weights, Bias: l.bias, NumClasses: l.numClasses,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (l *Logistic) GobDecode(b []byte) error {
	var w logisticWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	l.Epochs, l.LearningRate, l.Lambda, l.Seed = w.Epochs, w.LearningRate, w.Lambda, w.Seed
	l.enc = encoderFromWire(w.Enc)
	l.weights, l.bias, l.numClasses = w.Weights, w.Bias, w.NumClasses
	return nil
}

type mlpWire struct {
	Hidden       int
	LearningRate float64
	Momentum     float64
	Epochs       int
	Seed         int64
	Enc          *encoderWire
	NumClasses   int
	W1, W2       [][]float64
	B1, B2       []float64
}

// GobEncode implements gob.GobEncoder.
func (m *MLP) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(mlpWire{
		Hidden: m.Hidden, LearningRate: m.LearningRate, Momentum: m.Momentum,
		Epochs: m.Epochs, Seed: m.Seed,
		Enc: encoderToWire(m.enc), NumClasses: m.numClasses,
		W1: m.w1, W2: m.w2, B1: m.b1, B2: m.b2,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *MLP) GobDecode(b []byte) error {
	var w mlpWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	m.Hidden, m.LearningRate, m.Momentum, m.Epochs, m.Seed =
		w.Hidden, w.LearningRate, w.Momentum, w.Epochs, w.Seed
	m.enc = encoderFromWire(w.Enc)
	m.numClasses = w.NumClasses
	m.w1, m.w2, m.b1, m.b2 = w.W1, w.W2, w.B1, w.B2
	m.dw1p, m.dw2p, m.db1p, m.db2p = nil, nil, nil, nil
	return nil
}

type randomTreeWire struct {
	Seed       int64
	MinLeaf    float64
	Root       *TreeNode
	ClassAttr  *dataset.Attribute
	ClassIndex int
}

// GobEncode implements gob.GobEncoder.
func (t *RandomTree) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(randomTreeWire{
		Seed: t.Seed, MinLeaf: t.MinLeaf,
		Root: t.root, ClassAttr: t.classAttr, ClassIndex: t.classIndex,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (t *RandomTree) GobDecode(b []byte) error {
	var w randomTreeWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	t.Seed, t.MinLeaf = w.Seed, w.MinLeaf
	t.root, t.classAttr, t.classIndex = w.Root, w.ClassAttr, w.ClassIndex
	t.width = treeWidth(w.Root, w.ClassIndex)
	t.rng = nil
	return nil
}

type baggingWire struct {
	Size        int
	Seed        int64
	Parallelism int
	Members     []Classifier
}

// GobEncode implements gob.GobEncoder. The Base factory is not
// serialisable; a restored ensemble predicts with its trained members
// (retraining falls back to the default base learner).
func (b *Bagging) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(baggingWire{
		Size: b.Size, Seed: b.Seed, Parallelism: b.Parallelism, Members: b.members,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (b *Bagging) GobDecode(raw []byte) error {
	var w baggingWire
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&w); err != nil {
		return err
	}
	b.Size, b.Seed, b.Parallelism, b.members = w.Size, w.Seed, w.Parallelism, w.Members
	return nil
}

type adaBoostWire struct {
	Rounds  int
	Seed    int64
	Members []Classifier
	Alphas  []float64
	NumCls  int
}

// GobEncode implements gob.GobEncoder.
func (a *AdaBoostM1) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(adaBoostWire{
		Rounds: a.Rounds, Seed: a.Seed, Members: a.members, Alphas: a.alphas, NumCls: a.numCls,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (a *AdaBoostM1) GobDecode(b []byte) error {
	var w adaBoostWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	a.Rounds, a.Seed, a.members, a.alphas, a.numCls = w.Rounds, w.Seed, w.Members, w.Alphas, w.NumCls
	return nil
}
