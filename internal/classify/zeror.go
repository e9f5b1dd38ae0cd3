package classify

import (
	"fmt"

	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// ZeroR predicts the prior class distribution of the training set. It is the
// floor baseline every other classifier must beat.
type ZeroR struct {
	counts     []float64
	classIndex int
}

func init() { Register("ZeroR", func() Classifier { return &ZeroR{} }) }

// Name implements Classifier.
func (z *ZeroR) Name() string { return "ZeroR" }

// Snapshot codes the trained model for the model store.
func (z *ZeroR) Snapshot(c binfmt.Codec) {
	c.F64s(&z.counts)
	c.Int(&z.classIndex)
}

// Train implements Classifier.
func (z *ZeroR) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	z.classIndex = d.ClassIndex
	z.counts = d.DeleteWithMissingClass().ClassCounts()
	return nil
}

// Distribution implements Classifier.
func (z *ZeroR) Distribution(in *dataset.Instance) ([]float64, error) {
	if z.counts == nil {
		return nil, fmt.Errorf("classify: ZeroR is untrained")
	}
	out := make([]float64, len(z.counts))
	copy(out, z.counts)
	return normalize(out), nil
}

// Begin implements Updateable.
func (z *ZeroR) Begin(schema *dataset.Dataset) error {
	ca := schema.ClassAttribute()
	if ca == nil || !ca.IsNominal() || ca.NumValues() < 2 {
		return fmt.Errorf("classify: ZeroR needs a nominal class with >=2 labels")
	}
	z.counts = make([]float64, schema.NumClasses())
	z.classIndex = schema.ClassIndex
	return nil
}

// Update implements Updateable.
func (z *ZeroR) Update(in *dataset.Instance) error {
	if z.counts == nil {
		return fmt.Errorf("classify: ZeroR.Update before Begin")
	}
	v := in.Values[z.classIndex]
	if dataset.IsMissing(v) {
		return nil
	}
	z.counts[int(v)] += in.Weight
	return nil
}
