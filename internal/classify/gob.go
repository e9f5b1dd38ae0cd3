package classify

import (
	"bytes"
	"encoding/gob"

	"repro/internal/dataset"
)

// The gob mirrors below give trained models a durable serialised form. The
// paper's §4.5 finding hinges on exactly this: the naive Web Services
// deployment serialised the algorithm object to disk after every invocation
// and rebuilt it on the next one. These encoders are that serialised state.

type j48Wire struct {
	ConfidenceFactor float64
	MinLeaf          float64
	Unpruned         bool
	Root             *TreeNode
	ClassAttr        *dataset.Attribute
	ClassIndex       int
}

// GobEncode implements gob.GobEncoder.
func (j *J48) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(j48Wire{
		ConfidenceFactor: j.ConfidenceFactor,
		MinLeaf:          j.MinLeaf,
		Unpruned:         j.Unpruned,
		Root:             j.root,
		ClassAttr:        j.classAttr,
		ClassIndex:       j.classIndex,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (j *J48) GobDecode(b []byte) error {
	var w j48Wire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	j.ConfidenceFactor = w.ConfidenceFactor
	j.MinLeaf = w.MinLeaf
	j.Unpruned = w.Unpruned
	j.root = w.Root
	j.classAttr = w.ClassAttr
	j.classIndex = w.ClassIndex
	j.width = treeWidth(w.Root, w.ClassIndex)
	return nil
}

type naiveBayesWire struct {
	ClassIndex      int
	NumClasses      int
	Attrs           []*dataset.Attribute
	ClassCount      []float64
	Nominal         [][][]float64
	Sum, SumSq, Cnt [][]float64
}

// GobEncode implements gob.GobEncoder.
func (nb *NaiveBayes) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(naiveBayesWire{
		ClassIndex: nb.classIndex,
		NumClasses: nb.numClasses,
		Attrs:      nb.attrs,
		ClassCount: nb.classCount,
		Nominal:    nb.nominal,
		Sum:        nb.sum,
		SumSq:      nb.sumSq,
		Cnt:        nb.cnt,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (nb *NaiveBayes) GobDecode(b []byte) error {
	var w naiveBayesWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	nb.classIndex = w.ClassIndex
	nb.numClasses = w.NumClasses
	nb.attrs = w.Attrs
	nb.classCount = w.ClassCount
	nb.nominal = w.Nominal
	nb.sum = w.Sum
	nb.sumSq = w.SumSq
	nb.cnt = w.Cnt
	return nil
}

type zeroRWire struct {
	Counts     []float64
	ClassIndex int
}

// GobEncode implements gob.GobEncoder.
func (z *ZeroR) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(zeroRWire{Counts: z.counts, ClassIndex: z.classIndex})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (z *ZeroR) GobDecode(b []byte) error {
	var w zeroRWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	z.counts = w.Counts
	z.classIndex = w.ClassIndex
	return nil
}
