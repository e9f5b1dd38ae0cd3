// Package regress implements numeric-target learners. The paper's related
// work (§2) lists regression among WEKA's tool families ("tools for
// classification, regression, clustering, association rules ..."), and §3
// names "statistical algorithms such as regression" among the algorithms a
// framework must host; this package provides that family: ordinary
// least-squares linear regression with ridge stabilisation, and a k-NN
// regressor, plus the standard error measures.
package regress

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Regressor predicts a numeric target.
type Regressor interface {
	Name() string
	// Train fits the model; the dataset's class attribute must be numeric.
	Train(d *dataset.Dataset) error
	// Predict returns the estimated target for an instance.
	Predict(in *dataset.Instance) (float64, error)
}

// PredictBatch predicts every row of d with r.
func PredictBatch(r Regressor, d *dataset.Dataset) ([]float64, error) {
	out := make([]float64, d.NumInstances())
	for i, in := range d.Instances {
		y, err := r.Predict(in)
		if err != nil {
			return nil, fmt.Errorf("regress: row %d: %w", i, err)
		}
		out[i] = y
	}
	return out, nil
}

// checkWidth rejects an instance narrower than the schema the model was
// fitted on: a wire-decoded batch can carry any schema.
func checkWidth(name string, in *dataset.Instance, want int) error {
	if len(in.Values) < want {
		return fmt.Errorf("regress: %w: %s instance has %d values, model expects %d", dataset.ErrWidth, name, len(in.Values), want)
	}
	return nil
}

// checkTrainable validates a dataset for regression.
func checkTrainable(d *dataset.Dataset) error {
	if d == nil || d.NumInstances() == 0 {
		return fmt.Errorf("regress: empty training set")
	}
	ca := d.ClassAttribute()
	if ca == nil || !ca.IsNumeric() {
		return fmt.Errorf("regress: dataset %q needs a numeric class attribute", d.Relation)
	}
	return nil
}

// LinearRegression fits ordinary least squares over one-hot encoded
// features with an L2 (ridge) term for numerical stability.
type LinearRegression struct {
	// Ridge is the regularisation strength added to the normal-equation
	// diagonal: 1e-8 as registered, effectively OLS. The ridge option
	// takes only values above zero; a zero-valued struct trains with 1e-8.
	Ridge float64

	schema  *dataset.Dataset
	offset  []int
	width   int
	weights []float64 // length width+1; last entry is the intercept
}

// Name implements Regressor.
func (lr *LinearRegression) Name() string { return "LinearRegression" }

// encode maps a training instance onto the feature vector (numerics
// direct, nominals one-hot, missing = 0).
func (lr *LinearRegression) encode(in *dataset.Instance, x []float64) {
	for i := range x {
		x[i] = 0
	}
	for col, a := range lr.schema.Attrs {
		off := lr.offset[col]
		if off < 0 || col >= len(in.Values) {
			continue
		}
		v := in.Values[col]
		if dataset.IsMissing(v) {
			continue
		}
		if a.IsNumeric() {
			x[off] = v
		} else if idx := int(v); idx >= 0 && idx < a.NumValues() {
			x[off+idx] = 1
		}
	}
}

// Train implements Regressor by solving the ridge-stabilised normal
// equations with Gaussian elimination and partial pivoting.
func (lr *LinearRegression) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	lr.schema = d
	lr.offset = make([]int, d.NumAttributes())
	lr.width = 0
	for col, a := range d.Attrs {
		lr.offset[col] = -1
		if col == d.ClassIndex || a.IsString() {
			continue
		}
		lr.offset[col] = lr.width
		if a.IsNumeric() {
			lr.width++
		} else {
			lr.width += a.NumValues()
		}
	}
	p := lr.width + 1 // plus intercept
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	x := make([]float64, p)
	nTrained := 0
	for _, in := range d.Instances {
		y := in.Values[d.ClassIndex]
		if dataset.IsMissing(y) {
			continue
		}
		lr.encode(in, x[:lr.width])
		x[lr.width] = 1 // intercept
		w := in.Weight
		for i := 0; i < p; i++ {
			if x[i] == 0 {
				continue
			}
			xty[i] += w * x[i] * y
			for j := i; j < p; j++ {
				xtx[i][j] += w * x[i] * x[j]
			}
		}
		nTrained++
	}
	if nTrained == 0 {
		return fmt.Errorf("regress: every target value is missing")
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	ridge := lr.Ridge
	if ridge <= 0 {
		ridge = 1e-8
	}
	for i := 0; i < p; i++ {
		xtx[i][i] += ridge
	}
	w, err := solve(xtx, xty)
	if err != nil {
		return fmt.Errorf("regress: %w", err)
	}
	lr.weights = w
	return nil
}

// solve performs Gaussian elimination with partial pivoting on a (mutated).
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// Predict implements Regressor.
func (lr *LinearRegression) Predict(in *dataset.Instance) (float64, error) {
	if lr.weights == nil {
		return 0, fmt.Errorf("regress: LinearRegression is untrained")
	}
	if err := checkWidth(lr.Name(), in, len(lr.schema.Attrs)); err != nil {
		return 0, err
	}
	// The intercept, then each feature in ascending column order: the
	// order of encode's feature vector, without building it. A nominal
	// column's one-hot feature is 1, and w*1 == w bitwise.
	y := lr.weights[lr.width]
	for col, a := range lr.schema.Attrs {
		off := lr.offset[col]
		v := in.Values[col]
		if off < 0 || dataset.IsMissing(v) {
			continue
		}
		if a.IsNumeric() {
			if v != 0 {
				y += lr.weights[off] * v
			}
		} else if idx := int(v); idx >= 0 && idx < a.NumValues() {
			y += lr.weights[off+idx]
		}
	}
	return y, nil
}

// Coefficients returns the fitted weights (intercept last).
func (lr *LinearRegression) Coefficients() []float64 {
	return append([]float64(nil), lr.weights...)
}

// String renders the fitted model as an equation.
func (lr *LinearRegression) String() string {
	if lr.weights == nil {
		return "LinearRegression: untrained"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s =\n", lr.schema.ClassAttribute().Name)
	for col, a := range lr.schema.Attrs {
		off := lr.offset[col]
		if off < 0 {
			continue
		}
		if a.IsNumeric() {
			fmt.Fprintf(&b, "  %+.4f * %s\n", lr.weights[off], a.Name)
		} else {
			for v := 0; v < a.NumValues(); v++ {
				fmt.Fprintf(&b, "  %+.4f * [%s=%s]\n", lr.weights[off+v], a.Name, a.Value(v))
			}
		}
	}
	fmt.Fprintf(&b, "  %+.4f\n", lr.weights[lr.width])
	return b.String()
}

// KNNRegressor predicts the (optionally distance-weighted) mean target of
// the k nearest training instances.
type KNNRegressor struct {
	K              int
	DistanceWeight bool

	schema *dataset.Dataset
	min    []float64
	max    []float64
}

// Name implements Regressor.
func (k *KNNRegressor) Name() string { return "KNNRegressor" }

// Train implements Regressor (instance-based: stores the data).
func (k *KNNRegressor) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	if k.K < 1 {
		k.K = 3
	}
	k.schema = d
	k.min = make([]float64, d.NumAttributes())
	k.max = make([]float64, d.NumAttributes())
	for col, a := range d.Attrs {
		if !a.IsNumeric() {
			continue
		}
		k.min[col], k.max[col] = math.Inf(1), math.Inf(-1)
		for _, in := range d.Instances {
			v := in.Values[col]
			if dataset.IsMissing(v) {
				continue
			}
			k.min[col] = math.Min(k.min[col], v)
			k.max[col] = math.Max(k.max[col], v)
		}
	}
	return nil
}

func (k *KNNRegressor) distance(a, b *dataset.Instance) float64 {
	var s float64
	for col, attr := range k.schema.Attrs {
		if col == k.schema.ClassIndex {
			continue
		}
		av, bv := a.Values[col], b.Values[col]
		if dataset.IsMissing(av) || dataset.IsMissing(bv) {
			s++
			continue
		}
		if attr.IsNumeric() {
			span := k.max[col] - k.min[col]
			if span <= 0 {
				continue
			}
			diff := (av - bv) / span
			s += diff * diff
		} else if av != bv {
			s++
		}
	}
	return math.Sqrt(s)
}

// Predict implements Regressor.
func (k *KNNRegressor) Predict(in *dataset.Instance) (float64, error) {
	if k.schema == nil {
		return 0, fmt.Errorf("regress: KNNRegressor is untrained")
	}
	if err := checkWidth(k.Name(), in, len(k.schema.Attrs)); err != nil {
		return 0, err
	}
	type nb struct {
		d, y float64
	}
	nbs := make([]nb, 0, len(k.schema.Instances))
	for _, c := range k.schema.Instances {
		y := c.Values[k.schema.ClassIndex]
		if dataset.IsMissing(y) {
			continue
		}
		nbs = append(nbs, nb{k.distance(in, c), y})
	}
	if len(nbs) == 0 {
		return 0, fmt.Errorf("regress: no labelled neighbours")
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i].d < nbs[j].d })
	kk := k.K
	if kk > len(nbs) {
		kk = len(nbs)
	}
	var sum, wsum float64
	for i := 0; i < kk; i++ {
		w := 1.0
		if k.DistanceWeight {
			w = 1 / (nbs[i].d + 1e-9)
		}
		sum += w * nbs[i].y
		wsum += w
	}
	return sum / wsum, nil
}

// Evaluation accumulates regression error measures.
type Evaluation struct {
	n                       float64
	sumAbs, sumSq           float64
	sumY, sumYSq, sumResid2 float64
}

// Record adds one (actual, predicted) pair.
func (e *Evaluation) Record(actual, predicted float64) {
	diff := predicted - actual
	e.n++
	e.sumAbs += math.Abs(diff)
	e.sumSq += diff * diff
	e.sumY += actual
	e.sumYSq += actual * actual
	e.sumResid2 += diff * diff
}

// TestModel evaluates r over every instance with a known target.
func (e *Evaluation) TestModel(r Regressor, test *dataset.Dataset) error {
	for _, in := range test.Instances {
		y := in.Values[test.ClassIndex]
		if dataset.IsMissing(y) {
			continue
		}
		p, err := r.Predict(in)
		if err != nil {
			return err
		}
		e.Record(y, p)
	}
	return nil
}

// MAE returns the mean absolute error.
func (e *Evaluation) MAE() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sumAbs / e.n
}

// RMSE returns the root mean squared error.
func (e *Evaluation) RMSE() float64 {
	if e.n == 0 {
		return 0
	}
	return math.Sqrt(e.sumSq / e.n)
}

// R2 returns the coefficient of determination.
func (e *Evaluation) R2() float64 {
	if e.n == 0 {
		return 0
	}
	meanY := e.sumY / e.n
	ssTot := e.sumYSq - e.n*meanY*meanY
	if ssTot <= 0 {
		return 0
	}
	return 1 - e.sumResid2/ssTot
}
