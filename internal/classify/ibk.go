package classify

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// IBk is a k-nearest-neighbour classifier with heterogeneous distance
// (normalised absolute difference on numerics, 0/1 overlap on nominals) and
// optional inverse-distance vote weighting. It is updateable: new instances
// simply join the case base.
//
// Neighbours are ordered by (squared distance, case index): of two cases at
// the same distance the one that joined the case base first ranks first,
// and a NaN distance ranks after every number. Distribution and
// DistributionBatch run the same kernel, so the two agree bit for bit; its
// box tree (ibk_tree.go) skips cases without changing which it selects.
type IBk struct {
	K              int
	DistanceWeight bool

	schema *dataset.Dataset
	// The case base, copied in by Update (snapshots restore through it)
	// and never written on the scoring path, so concurrent readers of one
	// model need no lock: cases holds one schema-wide row per case (class
	// cell included), cls and weights one entry per case.
	cases   []float64
	cls     []int
	weights []float64
	min     []float64
	max     []float64
	tree    *ibkTree // built by Train or a restore, then only read
}

func init() { register("IBk", func() Classifier { return &IBk{K: 1} }) }

// Name implements Classifier.
func (k *IBk) Name() string { return "IBk" }

// Snapshot codes the trained model — the case base itself — for the model
// store, restoring it through Update, which validates every case.
func (k *IBk) Snapshot(c binfmt.Codec) {
	c.Int(&k.K)
	c.Bool(&k.DistanceWeight)
	if !c.Has(k.schema != nil) {
		return
	}
	schema, weights, cases := k.schema, k.weights, k.cases
	codeSchema(c, &schema)
	c.F64s(&weights)
	c.F64s(&cases)
	if !c.Reading() || c.R.Err() != nil {
		return
	}
	m := schema.NumAttributes()
	if len(cases) != m*len(weights) {
		c.Failf("IBk snapshot has %d values for %d cases of %d attributes", len(cases), len(weights), m)
		return
	}
	if err := k.Begin(schema); err != nil {
		c.Failf("%v", err)
		return
	}
	// Adopt the decoded slabs: Update copies each case onto itself or down.
	k.cases, k.weights, k.cls = cases[:0], weights[:0], make([]int, 0, len(weights))
	for i, wt := range weights {
		if err := k.Update(&dataset.Instance{Values: cases[i*m : (i+1)*m], Weight: wt}); err != nil {
			c.Failf("case %d: %v", i, err)
			return
		}
	}
	k.index(ibkLeaf)
}

// Options implements algo.Parameterized.
func (k *IBk) Options() []option {
	return []option{
		algo.Int("k", "number of neighbours", &k.K, 1),
		algo.Bool("distanceWeighting", "weight votes by inverse distance (true/false)", &k.DistanceWeight),
	}
}

// SetOption implements algo.Parameterized.
func (k *IBk) SetOption(name, value string) error { return Registry.Set(k, name, value) }

// Begin prepares the model for incremental updates against the schema.
func (k *IBk) Begin(schema *dataset.Dataset) error {
	ca := schema.ClassAttribute()
	if ca == nil || !ca.IsNominal() || ca.NumValues() < 2 {
		return fmt.Errorf("classify: IBk needs a nominal class with >=2 labels")
	}
	k.schema = schema
	k.cases, k.cls, k.weights, k.tree = nil, nil, nil, ibkNone
	n := schema.NumAttributes()
	k.min = make([]float64, n)
	k.max = make([]float64, n)
	for i := range k.min {
		k.min[i] = math.Inf(1)
		k.max[i] = math.Inf(-1)
	}
	return nil
}

// Update folds one instance into the model. The case is copied in, so the caller may
// reuse or edit in afterwards.
func (k *IBk) Update(in *dataset.Instance) error {
	if k.schema == nil {
		return fmt.Errorf("classify: IBk.Update before Begin/Train")
	}
	if len(in.Values) != k.schema.NumAttributes() {
		return fmt.Errorf("classify: IBk instance has %d values, schema has %d", len(in.Values), k.schema.NumAttributes())
	}
	c := in.Values[k.schema.ClassIndex]
	if dataset.IsMissing(c) {
		return nil
	}
	if !(c >= 0 && c < float64(k.schema.NumClasses())) {
		return fmt.Errorf("classify: IBk instance class %v is not a label index", c)
	}
	k.cases = append(k.cases, in.Values...)
	k.cls = append(k.cls, int(c))
	k.weights = append(k.weights, in.Weight)
	for col, a := range k.schema.Attrs {
		if !a.IsNumeric() {
			continue
		}
		v := in.Values[col]
		if dataset.IsMissing(v) {
			continue
		}
		if v < k.min[col] {
			k.min[col] = v
		}
		if v > k.max[col] {
			k.max[col] = v
		}
	}
	return nil
}

// Train implements Classifier.
func (k *IBk) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	if err := k.Begin(d); err != nil {
		return err
	}
	for _, in := range d.Instances {
		if err := k.Update(in); err != nil {
			return err
		}
	}
	if len(k.cls) == 0 {
		return fmt.Errorf("classify: IBk: no instances with a known class")
	}
	k.index(ibkLeaf)
	return nil
}

// ibkColumn is one attribute's term of the distance, resolved once per
// call rather than once per cell.
type ibkColumn struct {
	col  int
	kind int // ibkNumeric, ibkConstant or ibkNominal
	span float64
}

const (
	ibkNumeric  = iota // ((q-c)/span)^2
	ibkConstant        // numeric with span <= 0: only a missing cell counts
	ibkNominal         // 0/1 overlap
)

// plan resolves every non-class attribute's term against the current ranges.
func (k *IBk) plan() []ibkColumn {
	p := make([]ibkColumn, 0, len(k.schema.Attrs))
	for col, a := range k.schema.Attrs {
		if col == k.schema.ClassIndex {
			continue
		}
		c := ibkColumn{col: col, kind: ibkNominal}
		if a.IsNumeric() {
			c.kind, c.span = ibkNumeric, k.max[col]-k.min[col]
			if c.span <= 0 {
				c.kind = ibkConstant
			}
		}
		p = append(p, c)
	}
	return p
}

// neighbour is a selected case: its squared distance and its index.
type neighbour struct {
	sq  float64
	idx int
}

// before reports whether a ranks before b: by squared distance, a NaN
// after every number, then by case index.
func (a neighbour) before(b neighbour) bool {
	return a.sq < b.sq || a.sq == b.sq && a.idx < b.idx || b.sq != b.sq && (a.sq == a.sq || a.idx < b.idx)
}

// slots is the number of neighbours a query votes with.
func (k *IBk) slots() int { return max(0, min(k.K, len(k.cls))) }

// knn is one query's selection: best[:n] in rank order and, once best is
// full, the k-th best's distance and index; until then kth is NaN.
type knn struct {
	best   []neighbour
	n      int
	kth    float64
	kthIdx int
}

// nearest fills best with the len(best) nearest cases to the row q, in
// (squared distance, case index) order: the indexed cases through the
// tree, then the tail that Update added after it was built.
func (k *IBk) nearest(q []float64, plan []ibkColumn, best []neighbour) {
	if len(best) == 0 {
		return
	}
	sel, m, from := knn{best: best, kth: math.NaN()}, len(k.schema.Attrs), len(k.tree.perm)
	k.tree.visit(&sel, 0, m, q, plan)
	sel.scan(q, plan, k.cases[from*m:], m, nil, from)
}

// scan offers the cases in rows, m cells each, numbered ids[i] (first+i
// if ids is nil). A distance sums its defining terms in column order; a
// case is abandoned once the partial sum passes the k-th best, or reaches
// it with a later index. That is exact: the other terms are non-negative,
// so the sum could only tie or exceed it, or become NaN, which ranks last.
func (sel *knn) scan(q []float64, plan []ibkColumn, rows []float64, m int, ids []int, first int) {
	kth, kthIdx := sel.kth, sel.kthIdx
cases:
	for i, r := 0, 0; r < len(rows); i, r = i+1, r+m {
		j := first + i
		if ids != nil {
			j = ids[i]
		}
		row := rows[r : r+m]
		var s float64
		for _, c := range plan {
			qv, cv := q[c.col], row[c.col]
			switch {
			case dataset.IsMissing(qv) || dataset.IsMissing(cv):
				s++ // maximal difference when either side is unknown
			case c.kind == ibkNumeric:
				diff := (qv - cv) / c.span
				s += diff * diff
			case c.kind == ibkNominal && qv != cv:
				s++
			}
			if s >= kth && (s > kth || j > kthIdx) {
				continue cases
			}
		}
		nb, best, at := neighbour{s, j}, sel.best, sel.n
		switch {
		case sel.n < len(best):
			sel.n++
		case nb.before(best[at-1]):
			at-- // the current k-th best drops out
		default:
			continue
		}
		for ; at > 0 && nb.before(best[at-1]); at-- {
			best[at] = best[at-1]
		}
		best[at] = nb
		if sel.n == len(best) {
			kth, kthIdx = best[sel.n-1].sq, best[sel.n-1].idx
			sel.kth, sel.kthIdx = kth, kthIdx
		}
	}
}

// vote adds the selected neighbours' votes into out, nearest first, and
// normalises it.
func (k *IBk) vote(best []neighbour, out []float64) []float64 {
	for _, nb := range best {
		w := 1.0
		if k.DistanceWeight {
			w = 1 / (math.Sqrt(nb.sq) + 1e-9)
		}
		out[k.cls[nb.idx]] += w
	}
	return normalize(out)
}

// Distribution implements Classifier.
func (k *IBk) Distribution(in *dataset.Instance) ([]float64, error) {
	if len(k.cls) == 0 {
		return nil, fmt.Errorf("classify: IBk is untrained")
	}
	if err := checkWidth(k.Name(), in, k.schema.NumAttributes()); err != nil {
		return nil, err
	}
	best := make([]neighbour, k.slots())
	k.nearest(in.Values, k.plan(), best)
	return k.vote(best, make([]float64, k.schema.NumClasses())), nil
}

// DistributionBatch implements batchScorer for IBk: each row is gathered
// from the dataset's columns into one query buffer and run through the
// same kernel as Distribution.
func (k *IBk) DistributionBatch(d *dataset.Dataset) ([][]float64, error) {
	if len(k.cls) == 0 {
		return nil, fmt.Errorf("classify: IBk is untrained")
	}
	cols := d.Columns()
	m := k.schema.NumAttributes()
	if len(cols) < m {
		return nil, fmt.Errorf("classify: %w: IBk batch has %d attributes, model expects %d", dataset.ErrWidth, len(cols), m)
	}
	plan := k.plan()
	nq, nc := d.NumInstances(), k.schema.NumClasses()
	q := make([]float64, m)
	best := make([]neighbour, k.slots())
	slab := make([]float64, nq*nc)
	out := make([][]float64, nq)
	for i := range out {
		for _, c := range plan {
			q[c.col] = cols[c.col][i]
		}
		k.nearest(q, plan, best)
		out[i] = k.vote(best, slab[i*nc:(i+1)*nc:(i+1)*nc])
	}
	return out, nil
}
