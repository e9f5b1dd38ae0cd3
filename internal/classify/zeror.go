package classify

import (
	"fmt"

	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// zeroR predicts the prior class distribution of the training set. It is the
// floor baseline every other classifier must beat.
type zeroR struct {
	counts     []float64
	classIndex int
}

func init() { register("ZeroR", func() Classifier { return &zeroR{} }) }

// Name implements Classifier.
func (z *zeroR) Name() string { return "ZeroR" }

// Snapshot codes the trained model for the model store.
func (z *zeroR) Snapshot(c binfmt.Codec) {
	c.F64s(&z.counts)
	c.Int(&z.classIndex)
}

// Train implements Classifier.
func (z *zeroR) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	z.classIndex = d.ClassIndex
	z.counts = d.DeleteWithMissingClass().ClassCounts()
	return nil
}

// Distribution implements Classifier.
func (z *zeroR) Distribution(in *dataset.Instance) ([]float64, error) {
	if z.counts == nil {
		return nil, fmt.Errorf("classify: ZeroR is untrained")
	}
	out := make([]float64, len(z.counts))
	copy(out, z.counts)
	return normalize(out), nil
}
