package cluster

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/binfmt"
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
	logLik  float64
}

func init() { Register("EM", func() Clusterer { return &EM{K: 2, MaxIter: 100, Seed: 1, Tol: 1e-6} }) }

// Name implements Clusterer.
func (em *EM) Name() string { return "EM" }

// Snapshot codes the fitted model for the model store (see KMeans.Snapshot).
func (em *EM) Snapshot(c binfmt.Codec) {
	c.Int(&em.K)
	c.Int(&em.MaxIter)
	c.Int64(&em.Seed)
	c.F64(&em.Tol)
	var reserved int // was the parallelism setting: written as 0, ignored on read
	c.Signed(&reserved)
	c.F64(&em.logLik)
	c.Ints(&em.cols)
	c.F64s(&em.weights)
	c.F64Rows(&em.means, len(em.cols))
	c.F64Rows(&em.vars, len(em.cols))
	if em.means != nil && (len(em.weights) != em.K || len(em.means) != em.K || len(em.vars) != em.K) {
		c.Failf("EM has %d weights, %d means and %d variances for %d components",
			len(em.weights), len(em.means), len(em.vars), em.K)
	}
}

// Options implements Parameterized.
func (em *EM) Options() []Option {
	return []Option{
		{Name: "k", Description: "number of mixture components", Default: "2", Required: true},
		{Name: "maxIterations", Description: "EM iteration cap", Default: "100"},
		{Name: "seed", Description: "initialisation seed", Default: "1"},
	}
}

// SetOption implements Parameterized.
func (em *EM) SetOption(name, value string) error {
	switch name {
	case "k":
		n, err := strconv.Atoi(value)
		if err != nil || n < 1 {
			return fmt.Errorf("cluster: EM k must be a positive integer, got %q", value)
		}
		em.K = n
	case "maxIterations":
		n, err := strconv.Atoi(value)
		if err != nil || n < 1 {
			return fmt.Errorf("cluster: EM maxIterations must be a positive integer, got %q", value)
		}
		em.MaxIter = n
	case "seed":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("cluster: EM seed must be an integer, got %q", value)
		}
		em.Seed = n
	default:
		return fmt.Errorf("cluster: EM has no option %q", name)
	}
	return nil
}

// Build implements Clusterer.
func (em *EM) Build(d *dataset.Dataset) error {
	return em.BuildContext(context.Background(), d)
}

// BuildContext implements ContextBuilder: the fit checks ctx inside the
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
			logs := make([]float64, em.K)
			for c := 0; c < em.K; c++ {
				logs[c] = math.Log(em.weights[c]) + em.logGauss(in, c)
			}
			maxLog := math.Inf(-1)
			for _, v := range logs {
				if v > maxLog {
					maxLog = v
				}
			}
			var sum float64
			for c, v := range logs {
				resp[i][c] = math.Exp(v - maxLog)
				sum += resp[i][c]
			}
			for c := range resp[i] {
				resp[i][c] /= sum
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
		em.logLik = ll / float64(n)
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

// LogLikelihood returns the final per-instance log likelihood.
func (em *EM) LogLikelihood() float64 { return em.logLik }

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
