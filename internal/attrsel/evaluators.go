// Package attrsel implements attribute search and selection. The paper
// provides "20 different approaches" to attribute selection "such as a
// genetic search operator"; this package reproduces that capability as the
// cross product of attribute/subset evaluators and search strategies (see
// Approaches), including the genetic search the case study uses to automate
// the choice of the root attribute (§5.3).
package attrsel

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/classify"
	"repro/internal/dataset"
)

// AttributeEvaluator scores individual attributes against the class.
type AttributeEvaluator interface {
	Name() string
	// Prepare precomputes statistics over the dataset.
	Prepare(d *dataset.Dataset) error
	// Evaluate returns the merit of attribute col (higher is better).
	Evaluate(col int) (float64, error)
}

// SubsetEvaluator scores attribute subsets.
type SubsetEvaluator interface {
	Name() string
	Prepare(d *dataset.Dataset) error
	// EvaluateSubset returns the merit of the subset (higher is better).
	EvaluateSubset(cols []int) (float64, error)
}

// ---------- contingency-table helpers ----------

// contingency builds the attribute-value × class weight table for nominal
// column col; numeric columns are discretised into ten equal-width bins.
func contingency(d *dataset.Dataset, col int) ([][]float64, error) {
	return contingencyWith(d, col, d.ClassIndex)
}

// contingencyWith is contingency against an explicit "class" column, so
// callers that pair two ordinary attributes (CFS redundancy terms) need
// not mutate d.ClassIndex — which would race under parallel search.
func contingencyWith(d *dataset.Dataset, col, classIdx int) ([][]float64, error) {
	if classIdx < 0 || classIdx >= d.NumAttributes() {
		return nil, fmt.Errorf("attrsel: dataset needs a nominal class")
	}
	ca := d.Attrs[classIdx]
	if ca == nil || !ca.IsNominal() {
		return nil, fmt.Errorf("attrsel: dataset needs a nominal class")
	}
	k := ca.NumValues()
	a := d.Attrs[col]
	var rows int
	var binOf func(v float64) int
	if a.IsNominal() {
		rows = a.NumValues()
		binOf = func(v float64) int { return int(v) }
	} else {
		const bins = 10
		rows = bins
		min, max := math.Inf(1), math.Inf(-1)
		for _, in := range d.Instances {
			v := in.Values[col]
			if dataset.IsMissing(v) {
				continue
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		span := max - min
		binOf = func(v float64) int {
			if span <= 0 {
				return 0
			}
			b := int((v - min) / span * bins)
			if b >= bins {
				b = bins - 1
			}
			return b
		}
	}
	tbl := make([][]float64, rows)
	for i := range tbl {
		tbl[i] = make([]float64, k)
	}
	for _, in := range d.Instances {
		v, cv := in.Values[col], in.Values[classIdx]
		if dataset.IsMissing(v) || dataset.IsMissing(cv) {
			continue
		}
		tbl[binOf(v)][int(cv)] += in.Weight
	}
	return tbl, nil
}

// infoGainOf computes H(class) - H(class|attr) from a contingency table.
func infoGainOf(tbl [][]float64) (gain, splitInfo, classH float64) {
	k := len(tbl[0])
	classTot := make([]float64, k)
	var total float64
	for _, row := range tbl {
		for c, w := range row {
			classTot[c] += w
			total += w
		}
	}
	if total <= 0 {
		return 0, 0, 0
	}
	classH = dataset.Entropy(classTot)
	var condH float64
	for _, row := range tbl {
		w := sum(row)
		if w > 0 {
			condH += w / total * dataset.Entropy(row)
			p := w / total
			splitInfo -= p * math.Log2(p)
		}
	}
	return classH - condH, splitInfo, classH
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ---------- single-attribute evaluators ----------

// infoGain ranks attributes by information gain.
type infoGain struct{ d *dataset.Dataset }

// Name implements AttributeEvaluator.
func (e *infoGain) Name() string { return "InfoGain" }

// Prepare implements AttributeEvaluator.
func (e *infoGain) Prepare(d *dataset.Dataset) error { e.d = d; return nil }

// Evaluate implements AttributeEvaluator.
func (e *infoGain) Evaluate(col int) (float64, error) {
	tbl, err := contingency(e.d, col)
	if err != nil {
		return 0, err
	}
	g, _, _ := infoGainOf(tbl)
	return g, nil
}

// gainRatio ranks attributes by C4.5's gain ratio.
type gainRatio struct{ d *dataset.Dataset }

// Name implements AttributeEvaluator.
func (e *gainRatio) Name() string { return "GainRatio" }

// Prepare implements AttributeEvaluator.
func (e *gainRatio) Prepare(d *dataset.Dataset) error { e.d = d; return nil }

// Evaluate implements AttributeEvaluator.
func (e *gainRatio) Evaluate(col int) (float64, error) {
	tbl, err := contingency(e.d, col)
	if err != nil {
		return 0, err
	}
	g, si, _ := infoGainOf(tbl)
	if si <= 1e-12 {
		return 0, nil
	}
	return g / si, nil
}

// symmetricalUncertainty ranks attributes by 2*gain/(H(A)+H(C)).
type symmetricalUncertainty struct{ d *dataset.Dataset }

// Name implements AttributeEvaluator.
func (e *symmetricalUncertainty) Name() string { return "SymmetricalUncertainty" }

// Prepare implements AttributeEvaluator.
func (e *symmetricalUncertainty) Prepare(d *dataset.Dataset) error { e.d = d; return nil }

// Evaluate implements AttributeEvaluator.
func (e *symmetricalUncertainty) Evaluate(col int) (float64, error) {
	tbl, err := contingency(e.d, col)
	if err != nil {
		return 0, err
	}
	g, attrH, classH := infoGainOf(tbl)
	if attrH+classH <= 1e-12 {
		return 0, nil
	}
	return 2 * g / (attrH + classH), nil
}

// chiSquared ranks attributes by the chi-squared statistic of their
// contingency table with the class.
type chiSquared struct{ d *dataset.Dataset }

// Name implements AttributeEvaluator.
func (e *chiSquared) Name() string { return "ChiSquared" }

// Prepare implements AttributeEvaluator.
func (e *chiSquared) Prepare(d *dataset.Dataset) error { e.d = d; return nil }

// Evaluate implements AttributeEvaluator.
func (e *chiSquared) Evaluate(col int) (float64, error) {
	tbl, err := contingency(e.d, col)
	if err != nil {
		return 0, err
	}
	k := len(tbl[0])
	colTot := make([]float64, k)
	var total float64
	rowTot := make([]float64, len(tbl))
	for i, row := range tbl {
		for c, w := range row {
			rowTot[i] += w
			colTot[c] += w
			total += w
		}
	}
	if total <= 0 {
		return 0, nil
	}
	var chi float64
	for i, row := range tbl {
		for c, w := range row {
			exp := rowTot[i] * colTot[c] / total
			if exp > 0 {
				diff := w - exp
				chi += diff * diff / exp
			}
		}
	}
	return chi, nil
}

// oneRAccuracy scores an attribute by the training accuracy of a OneR rule
// built on it alone.
type oneRAccuracy struct{ d *dataset.Dataset }

// Name implements AttributeEvaluator.
func (e *oneRAccuracy) Name() string { return "OneRAccuracy" }

// Prepare implements AttributeEvaluator.
func (e *oneRAccuracy) Prepare(d *dataset.Dataset) error { e.d = d; return nil }

// Evaluate implements AttributeEvaluator.
func (e *oneRAccuracy) Evaluate(col int) (float64, error) {
	proj, err := e.d.Project([]int{col, e.d.ClassIndex})
	if err != nil {
		return 0, err
	}
	r, err := classify.New("OneR")
	if err != nil {
		return 0, err
	}
	if err := r.Train(proj); err != nil {
		return 0, err
	}
	ev, err := classify.NewEvaluation(proj)
	if err != nil {
		return 0, err
	}
	if err := ev.TestModel(r, proj); err != nil {
		return 0, err
	}
	return ev.Accuracy(), nil
}

// correlation scores numeric attributes by |Pearson correlation| with the
// class index treated as a numeric target (nominal attributes score by
// symmetric uncertainty instead).
type correlation struct {
	d  *dataset.Dataset
	su *symmetricalUncertainty
}

// Name implements AttributeEvaluator.
func (e *correlation) Name() string { return "Correlation" }

// Prepare implements AttributeEvaluator.
func (e *correlation) Prepare(d *dataset.Dataset) error {
	e.d = d
	e.su = &symmetricalUncertainty{}
	return e.su.Prepare(d)
}

// Evaluate implements AttributeEvaluator.
func (e *correlation) Evaluate(col int) (float64, error) {
	if !e.d.Attrs[col].IsNumeric() {
		return e.su.Evaluate(col)
	}
	var sx, sy, sxx, syy, sxy, n float64
	for _, in := range e.d.Instances {
		x, y := in.Values[col], in.Values[e.d.ClassIndex]
		if dataset.IsMissing(x) || dataset.IsMissing(y) {
			continue
		}
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
		n++
	}
	if n < 2 {
		return 0, nil
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return 0, nil
	}
	return math.Abs(cov / math.Sqrt(vx*vy)), nil
}

// ReliefF's sample size, neighbour count and sampling seed.
const (
	reliefSamples = 50
	reliefK       = 5
	reliefSeed    = 1
)

// reliefF estimates attribute relevance by contrasting each of
// reliefSamples sampled instances' reliefK nearest hits and reliefK
// nearest misses per class (Kononenko's ReliefF).
type reliefF struct {
	d    *dataset.Dataset
	span []float64
}

// Name implements AttributeEvaluator.
func (e *reliefF) Name() string { return "ReliefF" }

// Prepare implements AttributeEvaluator.
func (e *reliefF) Prepare(d *dataset.Dataset) error {
	if d.NumClasses() == 0 {
		return fmt.Errorf("attrsel: ReliefF needs a nominal class")
	}
	e.d = d
	e.span = make([]float64, d.NumAttributes())
	for col, a := range d.Attrs {
		if !a.IsNumeric() {
			continue
		}
		min, max := math.Inf(1), math.Inf(-1)
		for _, in := range d.Instances {
			v := in.Values[col]
			if dataset.IsMissing(v) {
				continue
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if max > min {
			e.span[col] = max - min
		}
	}
	return nil
}

// diff is ReliefF's per-attribute difference in [0,1].
func (e *reliefF) diff(col int, a, b *dataset.Instance) float64 {
	av, bv := a.Values[col], b.Values[col]
	if dataset.IsMissing(av) || dataset.IsMissing(bv) {
		return 1
	}
	if e.d.Attrs[col].IsNumeric() {
		if e.span[col] <= 0 {
			return 0
		}
		return math.Abs(av-bv) / e.span[col]
	}
	if av != bv {
		return 1
	}
	return 0
}

func (e *reliefF) distance(a, b *dataset.Instance) float64 {
	var s float64
	for col := range e.d.Attrs {
		if col == e.d.ClassIndex {
			continue
		}
		s += e.diff(col, a, b)
	}
	return s
}

// Evaluate implements AttributeEvaluator.
func (e *reliefF) Evaluate(col int) (float64, error) {
	rng := rand.New(rand.NewSource(reliefSeed))
	n := e.d.NumInstances()
	samples := min(reliefSamples, n)
	var w float64
	for s := 0; s < samples; s++ {
		ri := rng.Intn(n)
		r := e.d.Instances[ri]
		rc := r.Values[e.d.ClassIndex]
		if dataset.IsMissing(rc) {
			continue
		}
		// K nearest hits, and K nearest misses per other class.
		var hits []reliefNB
		misses := map[int][]reliefNB{}
		for i, other := range e.d.Instances {
			if i == ri {
				continue
			}
			oc := other.Values[e.d.ClassIndex]
			if dataset.IsMissing(oc) {
				continue
			}
			dd := e.distance(r, other)
			if int(oc) == int(rc) {
				hits = insertNB(hits, reliefNB{dd, other}, reliefK)
			} else {
				misses[int(oc)] = insertNB(misses[int(oc)], reliefNB{dd, other}, reliefK)
			}
		}
		for _, h := range hits {
			w -= e.diff(col, r, h.in) / (float64(samples) * float64(len(hits)))
		}
		for _, ms := range misses {
			for _, m := range ms {
				w += e.diff(col, r, m.in) / (float64(samples) * float64(len(misses)) * float64(len(ms)))
			}
		}
	}
	return w, nil
}

type reliefNB struct {
	d  float64
	in *dataset.Instance
}

// insertNB keeps the k smallest-distance neighbours in ascending order.
func insertNB(xs []reliefNB, x reliefNB, k int) []reliefNB {
	pos := len(xs)
	for i, e := range xs {
		if x.d < e.d {
			pos = i
			break
		}
	}
	if pos >= k {
		return xs
	}
	xs = append(xs, x)
	copy(xs[pos+1:], xs[pos:])
	xs[pos] = x
	if len(xs) > k {
		xs = xs[:k]
	}
	return xs
}
