package classify

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/dataset"
)

// Gob mirrors for the remaining single-model learners, so the naive
// serialising deployment of §4.5 (and the model store generally) can carry
// any of the commonly requested algorithms. Ensemble and
// gradient-trained models (Bagging, RandomForest, AdaBoostM1, Logistic,
// MLP) are deliberately not serialisable: the §4.5 experiment concerns
// per-invocation state round-trips of single algorithm objects, and the
// in-memory harness handles the rest.

type oneRWire struct {
	MinBucket  int
	Attr       int
	Numeric    bool
	Cutpoints  []float64
	ValueClass [][]float64
	Fallback   []float64
	ClassIndex int
	NumClasses int
}

// GobEncode implements gob.GobEncoder.
func (o *OneR) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(oneRWire{
		MinBucket:  o.minBucket,
		Attr:       o.attr,
		Numeric:    o.numeric,
		Cutpoints:  o.cutpoints,
		ValueClass: o.valueClass,
		Fallback:   o.fallback,
		ClassIndex: o.classIndex,
		NumClasses: o.numClasses,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (o *OneR) GobDecode(b []byte) error {
	var w oneRWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	o.minBucket = w.MinBucket
	o.attr = w.Attr
	o.numeric = w.Numeric
	o.cutpoints = w.Cutpoints
	o.valueClass = w.ValueClass
	o.fallback = w.Fallback
	o.classIndex = w.ClassIndex
	o.numClasses = w.NumClasses
	return nil
}

type ibkWire struct {
	K              int
	DistanceWeight bool
	Relation       string
	Attrs          []*dataset.Attribute
	ClassIndex     int
	Rows           [][]float64
	Weights        []float64
	Min, Max       []float64
}

// GobEncode implements gob.GobEncoder (the case base travels whole —
// instance-based learning's serialised state IS the data).
func (k *IBk) GobEncode() ([]byte, error) {
	w := ibkWire{K: k.K, DistanceWeight: k.DistanceWeight, Min: k.min, Max: k.max}
	if k.schema != nil {
		w.Relation = k.schema.Relation
		w.Attrs = k.schema.Attrs
		w.ClassIndex = k.schema.ClassIndex
		w.Weights = k.weights
		m := k.schema.NumAttributes()
		for i := range k.cls {
			w.Rows = append(w.Rows, k.cases[i*m:(i+1)*m])
		}
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. The case base is replayed through
// Update, which validates each row and rebuilds the ranges the snapshot
// also carries.
func (k *IBk) GobDecode(b []byte) error {
	var w ibkWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	*k = IBk{K: w.K, DistanceWeight: w.DistanceWeight}
	if w.Attrs == nil {
		return nil
	}
	if len(w.Weights) != len(w.Rows) {
		return fmt.Errorf("classify: IBk snapshot has %d weights for %d rows", len(w.Weights), len(w.Rows))
	}
	sc := dataset.New(w.Relation, w.Attrs...)
	sc.ClassIndex = w.ClassIndex
	if err := k.Begin(sc); err != nil {
		return err
	}
	for i, row := range w.Rows {
		if err := k.Update(&dataset.Instance{Values: row, Weight: w.Weights[i]}); err != nil {
			return err
		}
	}
	return nil
}

type prismWire struct {
	Rules      []prismRule
	ClassAttr  *dataset.Attribute
	ClassIndex int
	Fallback   []float64
}

// GobEncode implements gob.GobEncoder.
func (p *Prism) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(prismWire{
		Rules:      p.rules,
		ClassAttr:  p.classAttr,
		ClassIndex: p.classIndex,
		Fallback:   p.fallback,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (p *Prism) GobDecode(b []byte) error {
	var w prismWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	p.rules = w.Rules
	p.classAttr = w.ClassAttr
	p.classIndex = w.ClassIndex
	p.fallback = w.Fallback
	return nil
}
