package classify

import (
	"fmt"

	"repro/internal/dataset"
)

// batchScorer is implemented by the classifiers whose scoring has per-block
// setup worth amortising: IBk's query scratch and NaiveBayes's prepare.
// DistributionBatch runs the same per-row body as Distribution, so the two
// agree bit for bit; every other classifier is scored by the row loop.
type batchScorer interface {
	DistributionBatch(d *dataset.Dataset) ([][]float64, error)
}

// PredictBatch scores every row of d with c, returning the per-row
// predicted label index and the distribution it was taken from. It calls
// DistributionBatch when c implements batchScorer and Distribution row by
// row otherwise; the argmax is first-max-wins, exactly as Predict.
func PredictBatch(c Classifier, d *dataset.Dataset) ([]int, [][]float64, error) {
	var dists [][]float64
	if bs, ok := c.(batchScorer); ok {
		var err error
		dists, err = bs.DistributionBatch(d)
		if err != nil {
			return nil, nil, err
		}
	} else {
		dists = make([][]float64, d.NumInstances())
		for i, in := range d.Instances {
			dist, err := c.Distribution(in)
			if err != nil {
				return nil, nil, fmt.Errorf("row %d: %w", i, err)
			}
			dists[i] = dist
		}
	}
	labels := make([]int, len(dists))
	for i, dist := range dists {
		if len(dist) == 0 {
			return nil, nil, fmt.Errorf("classify: %s returned an empty distribution for row %d", c.Name(), i)
		}
		best, bestP := 0, dist[0]
		for l, p := range dist {
			if p > bestP {
				best, bestP = l, p
			}
		}
		labels[i] = best
	}
	return labels, dists, nil
}

// checkWidth rejects an instance narrower than the schema the model was
// trained on: a wire-decoded block can carry any schema.
func checkWidth(name string, in *dataset.Instance, want int) error {
	if len(in.Values) < want {
		return fmt.Errorf("classify: %w: %s instance has %d values, model expects %d", dataset.ErrWidth, name, len(in.Values), want)
	}
	return nil
}

// errNegativeNominal rejects a nominal cell below zero, which only a block
// declaring the column numeric can carry: like a narrow row, it misfits.
func errNegativeNominal(col int, v float64) error {
	return fmt.Errorf("classify: %w: nominal column %d holds %v", dataset.ErrWidth, col, v)
}
