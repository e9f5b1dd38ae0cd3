package cluster

import (
	"context"
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// EM fits a diagonal-covariance Gaussian mixture by expectation
// maximisation over the numeric attributes, initialised from k-means.
// The E step parallelises per instance (responsibilities are written to
// index-addressed rows, log-likelihood summed in index order) and the M
// step per component, so the fit is bit-identical at any GOMAXPROCS.
type EM struct {
	K       int
	MaxIter int
	Seed    int64
	Tol     float64

	cols    []int
	weights []float64
	means   [][]float64
	vars    [][]float64
}

func init() { register("EM", func() Clusterer { return &EM{K: 2, MaxIter: 100, Seed: 1, Tol: 1e-6} }) }

// Name implements Clusterer.
func (em *EM) Name() string { return "EM" }

// Options implements Parameterized.
func (em *EM) Options() []option {
	return []option{
		algo.Int("k", "number of mixture components", &em.K, 1).Require(),
		algo.Int("maxIterations", "EM iteration cap", &em.MaxIter, 1),
		algo.Seed("seed", "initialisation seed", &em.Seed),
	}
}

// SetOption implements Parameterized.
func (em *EM) SetOption(name, value string) error { return Registry.Set(em, name, value) }

// Build implements Clusterer.
func (em *EM) Build(d *dataset.Dataset) error {
	return em.BuildContext(context.Background(), d)
}

// BuildContext implements contextBuilder: the fit checks ctx inside the
// E and M steps of every iteration.
func (em *EM) BuildContext(ctx context.Context, d *dataset.Dataset) error {
	cols, err := numericColumns(d)
	if err != nil {
		return err
	}
	if d.NumInstances() < em.K {
		return fmt.Errorf("cluster: %d instances < k=%d", d.NumInstances(), em.K)
	}
	em.cols = cols
	// Initialise from k-means.
	km := &KMeans{K: em.K, MaxIter: 20, Seed: em.Seed}
	if err := km.BuildContext(ctx, d); err != nil {
		return err
	}
	dim := len(cols)
	em.weights = make([]float64, em.K)
	em.means = make([][]float64, em.K)
	em.vars = make([][]float64, em.K)
	for c := 0; c < em.K; c++ {
		em.means[c] = append([]float64(nil), km.Centroids[c]...)
		em.vars[c] = make([]float64, dim)
		for j := range em.vars[c] {
			em.vars[c][j] = 1
		}
		em.weights[c] = 1 / float64(em.K)
	}
	n := d.NumInstances()
	resp := make([][]float64, n)
	for i := range resp {
		resp[i] = make([]float64, em.K)
	}
	prevLL := math.Inf(-1)
	// Per-instance log-likelihood contributions, summed sequentially in
	// index order so the total matches the sequential fit bit for bit.
	contrib := make([]float64, n)
	for iter := 0; iter < em.MaxIter; iter++ {
		// E step: each instance's responsibilities depend only on the
		// current parameters, so rows fill in parallel.
		err := parallel.ForEach(ctx, n, func(i int) error {
			in := d.Instances[i]
			// The row's own slot holds its log terms first: each is read
			// once, just before it is overwritten.
			r := resp[i]
			maxLog := math.Inf(-1)
			for c := range r {
				r[c] = math.Log(em.weights[c]) + em.logGauss(in, c)
				if r[c] > maxLog {
					maxLog = r[c]
				}
			}
			var sum float64
			for c, v := range r {
				r[c] = math.Exp(v - maxLog)
				sum += r[c]
			}
			for c := range r {
				r[c] /= sum
			}
			contrib[i] = maxLog + math.Log(sum)
			return nil
		})
		if err != nil {
			return err
		}
		var ll float64
		for _, v := range contrib {
			ll += v
		}
		// M step: components update independently (disjoint writes).
		err = parallel.ForEach(ctx, em.K, func(c int) error {
			var rc float64
			mean := make([]float64, dim)
			for i, in := range d.Instances {
				r := resp[i][c]
				rc += r
				for j, col := range cols {
					v := in.Values[col]
					if !dataset.IsMissing(v) {
						mean[j] += r * v
					}
				}
			}
			if rc < 1e-10 {
				return nil
			}
			for j := range mean {
				mean[j] /= rc
			}
			variance := make([]float64, dim)
			for i, in := range d.Instances {
				r := resp[i][c]
				for j, col := range cols {
					v := in.Values[col]
					if !dataset.IsMissing(v) {
						diff := v - mean[j]
						variance[j] += r * diff * diff
					}
				}
			}
			for j := range variance {
				variance[j] = variance[j]/rc + 1e-6
			}
			em.weights[c] = rc / float64(n)
			em.means[c] = mean
			em.vars[c] = variance
			return nil
		})
		if err != nil {
			return err
		}
		if math.Abs(ll-prevLL) < em.Tol*math.Abs(prevLL) {
			break
		}
		prevLL = ll
	}
	return nil
}

// logGauss returns the log density of instance in under component c.
func (em *EM) logGauss(in *dataset.Instance, c int) float64 {
	var lp float64
	for j, col := range em.cols {
		v := in.Values[col]
		if dataset.IsMissing(v) {
			continue
		}
		variance := em.vars[c][j]
		diff := v - em.means[c][j]
		lp += -0.5*math.Log(2*math.Pi*variance) - diff*diff/(2*variance)
	}
	return lp
}

// NumClusters implements Clusterer.
func (em *EM) NumClusters() int { return em.K }

// Assign implements Clusterer.
func (em *EM) Assign(in *dataset.Instance) (int, error) {
	if em.means == nil {
		return -1, fmt.Errorf("cluster: EM is unbuilt")
	}
	best, bestV := 0, math.Inf(-1)
	for c := 0; c < em.K; c++ {
		v := math.Log(em.weights[c]+1e-300) + em.logGauss(in, c)
		if v > bestV {
			best, bestV = c, v
		}
	}
	return best, nil
}
