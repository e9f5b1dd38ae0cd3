package classify

import (
	"fmt"

	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// decisionStump is a one-level decision tree (single J48 split), the classic
// weak learner for boosting.
type decisionStump struct {
	inner *J48
}

func init() { register("DecisionStump", func() Classifier { return &decisionStump{} }) }

// Name implements Classifier.
func (s *decisionStump) Name() string { return "DecisionStump" }

// Snapshot codes the trained model for the model store.
func (s *decisionStump) Snapshot(c binfmt.Codec) {
	if c.Has(s.inner != nil) {
		if c.Reading() {
			s.inner = &J48{}
		}
		s.inner.Snapshot(c)
	}
}

// Train implements Classifier.
func (s *decisionStump) Train(d *dataset.Dataset) error {
	j := NewJ48()
	j.Unpruned = true
	j.MinLeaf = 1
	if err := j.Train(d); err != nil {
		return err
	}
	// Truncate to depth one: every child of the root becomes a leaf. The
	// width stays the grown tree's.
	if r := j.Tree(); r.Attr >= 0 {
		for _, c := range r.Children {
			c.Attr, c.Children = -1, nil
		}
		width := j.width
		j.flatten(r)
		j.width = width
	}
	s.inner = j
	return nil
}

// Distribution implements Classifier.
func (s *decisionStump) Distribution(in *dataset.Instance) ([]float64, error) {
	if s.inner == nil {
		return nil, fmt.Errorf("classify: DecisionStump is untrained")
	}
	return s.inner.Distribution(in)
}
