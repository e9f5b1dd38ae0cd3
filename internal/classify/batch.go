package classify

import (
	"fmt"
	"math"

	"repro/internal/dataset"
)

// BatchScorer is implemented by classifiers with a columnar fast path:
// DistributionBatch scores every row of d in one call, iterating the
// dataset's contiguous column slices instead of per-instance row walks.
// Implementations must produce bit-identical distributions to calling
// Distribution row by row — the batch path is an optimisation, never a
// different model.
type BatchScorer interface {
	DistributionBatch(d *dataset.Dataset) ([][]float64, error)
}

// PredictBatch scores every row of d with c, returning the per-row
// predicted label index and the distribution it was taken from. It uses
// the classifier's columnar fast path when it implements BatchScorer
// and falls back to a row loop otherwise; the argmax is first-max-wins,
// exactly as Predict.
func PredictBatch(c Classifier, d *dataset.Dataset) ([]int, [][]float64, error) {
	var dists [][]float64
	if bs, ok := c.(BatchScorer); ok {
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

// DistributionBatch implements BatchScorer for NaiveBayes. Per-(column,
// class) statistics — nominal row mass, Gaussian mean/variance — are
// computed once per batch instead of once per row; the per-row log-
// likelihood additions then happen in exactly Distribution's order
// (prior first, then columns ascending), so results are bit-identical.
func (nb *NaiveBayes) DistributionBatch(d *dataset.Dataset) ([][]float64, error) {
	if nb.classCount == nil {
		return nil, fmt.Errorf("classify: NaiveBayes is untrained")
	}
	cols := d.Columns()
	n := d.NumInstances()

	var totalW float64
	for _, w := range nb.classCount {
		totalW += w
	}
	logPrior := make([]float64, nb.numClasses)
	for c := range logPrior {
		logPrior[c] = math.Log((nb.classCount[c] + 1) / (totalW + float64(nb.numClasses)))
	}

	// Per-(col,class) precomputation, sharing Distribution's expressions.
	type gauss struct {
		ok             bool
		mean, variance float64
		logNorm        float64 // -0.5*log(2*pi*variance)
	}
	nomMass := make([][]float64, len(nb.attrs)) // rowW + k per class
	gaussCC := make([][]gauss, len(nb.attrs))
	for col, a := range nb.attrs {
		if col == nb.classIndex || col >= len(cols) {
			continue
		}
		switch {
		case a.IsNominal():
			nomMass[col] = make([]float64, nb.numClasses)
			for c := 0; c < nb.numClasses; c++ {
				row := nb.nominal[col][c]
				var rowW float64
				for _, w := range row {
					rowW += w
				}
				nomMass[col][c] = rowW + float64(len(row))
			}
		case a.IsNumeric():
			gaussCC[col] = make([]gauss, nb.numClasses)
			for c := 0; c < nb.numClasses; c++ {
				cnt := nb.cnt[col][c]
				if cnt < 2 {
					continue
				}
				mean := nb.sum[col][c] / cnt
				variance := nb.sumSq[col][c]/cnt - mean*mean
				if variance < 1e-6 {
					variance = 1e-6
				}
				gaussCC[col][c] = gauss{
					ok:       true,
					mean:     mean,
					variance: variance,
					logNorm:  -0.5 * math.Log(2*math.Pi*variance),
				}
			}
		}
	}

	out := make([][]float64, n)
	logp := make([]float64, nb.numClasses)
	for i := 0; i < n; i++ {
		for c := 0; c < nb.numClasses; c++ {
			lp := logPrior[c]
			for col, a := range nb.attrs {
				if col == nb.classIndex || col >= len(cols) {
					continue
				}
				v := cols[col][i]
				if dataset.IsMissing(v) {
					continue
				}
				switch {
				case a.IsNominal():
					lp += math.Log((nb.nominal[col][c][int(v)] + 1) / nomMass[col][c])
				case a.IsNumeric():
					g := gaussCC[col][c]
					if !g.ok {
						continue
					}
					diff := v - g.mean
					lp += g.logNorm - diff*diff/(2*g.variance)
				}
			}
			logp[c] = lp
		}
		// Soft-max in log space, exactly as Distribution.
		maxLog := math.Inf(-1)
		for _, lp := range logp {
			if lp > maxLog {
				maxLog = lp
			}
		}
		row := make([]float64, nb.numClasses)
		for c, lp := range logp {
			row[c] = math.Exp(lp - maxLog)
		}
		out[i] = normalize(row)
	}
	return out, nil
}
