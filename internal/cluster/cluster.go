// Package cluster implements the clustering substrate behind the paper's
// Clustering Web Services (§4.1): k-means, Cobweb (the algorithm the paper
// wraps explicitly), EM, hierarchical agglomerative clustering, farthest-
// first traversal and DBSCAN, plus internal evaluation measures.
package cluster

import (
	"context"
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/dataset"
)

// Clusterer groups the instances of a dataset.
type Clusterer interface {
	// Name returns the algorithm's registry name.
	Name() string
	// Build fits the clusterer to the dataset. The class attribute, when
	// designated, is ignored (clustering is unsupervised).
	Build(d *dataset.Dataset) error
	// NumClusters returns the number of clusters found.
	NumClusters() int
	// Assign returns the cluster index for an instance.
	Assign(in *dataset.Instance) (int, error)
}

// ContextBuilder marks clusterers whose Build honours context
// cancellation (the iterative k-means/EM fitters).
type ContextBuilder interface {
	Clusterer
	// BuildContext is Build with cooperative cancellation: it returns
	// ctx.Err() promptly once the context is done.
	BuildContext(ctx context.Context, d *dataset.Dataset) error
}

// BuildWith builds c under ctx: via BuildContext when supported,
// otherwise a plain Build bracketed by ctx checks.
func BuildWith(ctx context.Context, c Clusterer, d *dataset.Dataset) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cb, ok := c.(ContextBuilder); ok {
		return cb.BuildContext(ctx, d)
	}
	if err := c.Build(d); err != nil {
		return err
	}
	return ctx.Err()
}

// Parameterized exposes run-time options (the getOptions operation).
type Parameterized = algo.Parameterized

// Option describes one run-time parameter (getOptions reply unit).
type Option = algo.Option

// Registry holds every clusterer the general Clustering Web Service
// offers.
var Registry = algo.NewRegistry[Clusterer]("cluster", "clusterer")

// Register adds a clusterer factory; it panics on duplicate names.
func Register(name string, f func() Clusterer) { Registry.Register(name, f) }

// New constructs a registered clusterer by name.
func New(name string) (Clusterer, error) { return Registry.New(name) }

// Names returns the sorted registry names.
func Names() []string { return Registry.Names() }

// featureColumns returns the usable (numeric or nominal, non-class) columns.
func featureColumns(d *dataset.Dataset) []int {
	var cols []int
	for i, a := range d.Attrs {
		if i == d.ClassIndex || a.IsString() {
			continue
		}
		cols = append(cols, i)
	}
	return cols
}

// numericColumns returns the numeric non-class columns, erroring when none.
func numericColumns(d *dataset.Dataset) ([]int, error) {
	var cols []int
	for i, a := range d.Attrs {
		if i == d.ClassIndex || !a.IsNumeric() {
			continue
		}
		cols = append(cols, i)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("cluster: dataset %q has no numeric attributes", d.Relation)
	}
	return cols, nil
}

// euclidean computes the distance between a row and a centroid over the
// given columns; missing cells contribute nothing.
func euclidean(values, centroid []float64, cols []int) float64 {
	var s float64
	for j, col := range cols {
		v := values[col]
		if dataset.IsMissing(v) {
			continue
		}
		diff := v - centroid[j]
		s += diff * diff
	}
	return math.Sqrt(s)
}

// nearestCentroid returns the index of the centroid closest to the row;
// on a tie the lower index wins (strict <).
func nearestCentroid(values []float64, centroids [][]float64, cols []int) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if dd := euclidean(values, cent, cols); dd < bestD {
			best, bestD = c, dd
		}
	}
	return best
}

// Assignments applies c to every instance of d.
func Assignments(c Clusterer, d *dataset.Dataset) ([]int, error) {
	out := make([]int, d.NumInstances())
	for i, in := range d.Instances {
		a, err := c.Assign(in)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// SSE returns the within-cluster sum of squared distances to centroids for
// the given assignment over the numeric columns.
func SSE(d *dataset.Dataset, assign []int, k int) (float64, error) {
	cols, err := numericColumns(d)
	if err != nil {
		return 0, err
	}
	cent := make([][]float64, k)
	cnt := make([]float64, k)
	for i := range cent {
		cent[i] = make([]float64, len(cols))
	}
	for i, in := range d.Instances {
		c := assign[i]
		if c < 0 || c >= k {
			continue
		}
		cnt[c]++
		for j, col := range cols {
			if !dataset.IsMissing(in.Values[col]) {
				cent[c][j] += in.Values[col]
			}
		}
	}
	for c := range cent {
		if cnt[c] > 0 {
			for j := range cent[c] {
				cent[c][j] /= cnt[c]
			}
		}
	}
	var sse float64
	for i, in := range d.Instances {
		c := assign[i]
		if c < 0 || c >= k {
			continue
		}
		dist := euclidean(in.Values, cent[c], cols)
		sse += dist * dist
	}
	return sse, nil
}

// Silhouette returns the mean silhouette coefficient of the assignment
// over the numeric columns: for each instance, (b-a)/max(a,b) where a is
// the mean distance to its own cluster and b the smallest mean distance to
// another cluster. Values near 1 indicate tight, well-separated clusters.
// Instances with negative assignments (noise) are skipped.
func Silhouette(d *dataset.Dataset, assign []int, k int) (float64, error) {
	cols, err := numericColumns(d)
	if err != nil {
		return 0, err
	}
	if k < 2 {
		return 0, fmt.Errorf("cluster: silhouette needs at least 2 clusters")
	}
	n := d.NumInstances()
	pts := make([][]float64, n)
	for i, in := range d.Instances {
		p := make([]float64, len(cols))
		for j, col := range cols {
			v := in.Values[col]
			if !dataset.IsMissing(v) {
				p[j] = v
			}
		}
		pts[i] = p
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for j := range a {
			diff := a[j] - b[j]
			s += diff * diff
		}
		return math.Sqrt(s)
	}
	var total float64
	var counted int
	for i := 0; i < n; i++ {
		if assign[i] < 0 || assign[i] >= k {
			continue
		}
		sum := make([]float64, k)
		cnt := make([]int, k)
		for j := 0; j < n; j++ {
			if j == i || assign[j] < 0 || assign[j] >= k {
				continue
			}
			sum[assign[j]] += dist(pts[i], pts[j])
			cnt[assign[j]]++
		}
		own := assign[i]
		if cnt[own] == 0 {
			continue // singleton cluster: silhouette undefined, skip
		}
		a := sum[own] / float64(cnt[own])
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own || cnt[c] == 0 {
				continue
			}
			if m := sum[c] / float64(cnt[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		if m := math.Max(a, b); m > 0 {
			total += (b - a) / m
		}
		counted++
	}
	if counted == 0 {
		return 0, fmt.Errorf("cluster: no instances with a defined silhouette")
	}
	return total / float64(counted), nil
}

// Purity measures agreement between an assignment and the dataset's class
// labels: the weight fraction of instances whose cluster's majority class
// matches their own class.
func Purity(d *dataset.Dataset, assign []int, k int) (float64, error) {
	if d.NumClasses() == 0 {
		return 0, fmt.Errorf("cluster: purity needs a nominal class attribute")
	}
	tbl := make([][]float64, k)
	for i := range tbl {
		tbl[i] = make([]float64, d.NumClasses())
	}
	var total float64
	for i, in := range d.Instances {
		c := assign[i]
		cv := in.Values[d.ClassIndex]
		if c < 0 || c >= k || dataset.IsMissing(cv) {
			continue
		}
		tbl[c][int(cv)] += in.Weight
		total += in.Weight
	}
	if total == 0 {
		return 0, fmt.Errorf("cluster: no labelled instances")
	}
	var agree float64
	for _, row := range tbl {
		best := 0.0
		for _, w := range row {
			if w > best {
				best = w
			}
		}
		agree += best
	}
	return agree / total, nil
}
