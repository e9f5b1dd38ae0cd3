package attrsel

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/classify"
	"repro/internal/dataset"
)

// CFS is correlation-based feature subset selection (Hall): merit =
// k*avg(attr-class SU) / sqrt(k + k(k-1)*avg(attr-attr SU)). It favours
// subsets correlated with the class but uncorrelated with each other.
// EvaluateSubset is safe for concurrent use (parallel subset search):
// the pair-SU cache is mutex-guarded and the dataset is never mutated.
type CFS struct {
	d       *dataset.Dataset
	classSU []float64

	mu     sync.Mutex
	pairSU map[[2]int]float64
}

// Name implements SubsetEvaluator.
func (e *CFS) Name() string { return "CfsSubset" }

// Prepare implements SubsetEvaluator.
func (e *CFS) Prepare(d *dataset.Dataset) error {
	if d.NumClasses() == 0 {
		return fmt.Errorf("attrsel: CFS needs a nominal class")
	}
	e.d = d
	su := &symmetricalUncertainty{}
	if err := su.Prepare(d); err != nil {
		return err
	}
	e.classSU = make([]float64, d.NumAttributes())
	for col := range d.Attrs {
		if col == d.ClassIndex {
			continue
		}
		v, err := su.Evaluate(col)
		if err != nil {
			return err
		}
		e.classSU[col] = v
	}
	e.pairSU = map[[2]int]float64{}
	return nil
}

// attrPairSU computes (and caches) the symmetric uncertainty between two
// attributes, discretising numerics into ten bins.
func (e *CFS) attrPairSU(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	key := [2]int{a, b}
	e.mu.Lock()
	v, ok := e.pairSU[key]
	e.mu.Unlock()
	if ok {
		return v
	}
	// Build the joint table treating b as the "class" column.
	tbl, err := contingencyWith(e.d, a, b)
	if err != nil {
		e.mu.Lock()
		e.pairSU[key] = 0
		e.mu.Unlock()
		return 0
	}
	g, attrH, classH := infoGainOf(tbl)
	v = 0.0
	if attrH+classH > 1e-12 {
		v = 2 * g / (attrH + classH)
	}
	e.mu.Lock()
	e.pairSU[key] = v
	e.mu.Unlock()
	return v
}

// EvaluateSubset implements SubsetEvaluator.
func (e *CFS) EvaluateSubset(cols []int) (float64, error) {
	if len(cols) == 0 {
		return 0, nil
	}
	var rcf float64
	for _, c := range cols {
		rcf += e.classSU[c]
	}
	rcf /= float64(len(cols))
	var rff float64
	if len(cols) > 1 {
		var pairs float64
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				rff += e.attrPairSU(cols[i], cols[j])
				pairs++
			}
		}
		rff /= pairs
	}
	k := float64(len(cols))
	den := math.Sqrt(k + k*(k-1)*rff)
	if den <= 0 {
		return 0, nil
	}
	return k * rcf / den, nil
}

// Nominal-class contingency over an attribute pair is computed against
// an explicit class column (contingencyWith); see attrPairSU.

// wrapperFolds and wrapperSeed set the wrapper's inner cross-validation.
const (
	wrapperFolds = 3
	wrapperSeed  = 1
)

// wrapper evaluates subsets by the cross-validated accuracy of NaiveBayes
// trained on the projected dataset.
type wrapper struct {
	d *dataset.Dataset
}

// Name implements SubsetEvaluator.
func (e *wrapper) Name() string { return "WrapperSubset" }

// Prepare implements SubsetEvaluator.
func (e *wrapper) Prepare(d *dataset.Dataset) error {
	if d.NumClasses() == 0 {
		return fmt.Errorf("attrsel: Wrapper needs a nominal class")
	}
	e.d = d
	return nil
}

// EvaluateSubset implements SubsetEvaluator.
func (e *wrapper) EvaluateSubset(cols []int) (float64, error) {
	if len(cols) == 0 {
		return 0, nil
	}
	proj, err := e.d.Project(append(append([]int(nil), cols...), e.d.ClassIndex))
	if err != nil {
		return 0, err
	}
	ev, err := classify.CrossValidateContext(context.Background(),
		func() classify.Classifier { return &classify.NaiveBayes{} }, proj, wrapperFolds, wrapperSeed)
	if err != nil {
		return 0, err
	}
	return ev.Accuracy(), nil
}

// consistency scores a subset by the fraction of instance weight whose
// class equals the majority class of its attribute-value pattern (Liu &
// Setiono's consistency measure).
type consistency struct {
	d *dataset.Dataset
}

// Name implements SubsetEvaluator.
func (e *consistency) Name() string { return "ConsistencySubset" }

// Prepare implements SubsetEvaluator.
func (e *consistency) Prepare(d *dataset.Dataset) error {
	if d.NumClasses() == 0 {
		return fmt.Errorf("attrsel: Consistency needs a nominal class")
	}
	e.d = d
	return nil
}

// EvaluateSubset implements SubsetEvaluator.
func (e *consistency) EvaluateSubset(cols []int) (float64, error) {
	if len(cols) == 0 {
		return 0, nil
	}
	k := e.d.NumClasses()
	pattern := map[string][]float64{}
	var total float64
	for _, in := range e.d.Instances {
		cv := in.Values[e.d.ClassIndex]
		if dataset.IsMissing(cv) {
			continue
		}
		key := make([]byte, 0, len(cols)*4)
		for _, c := range cols {
			v := in.Values[c]
			if dataset.IsMissing(v) {
				key = append(key, '?', ';')
				continue
			}
			key = appendInt(key, int(v*8)) // numeric values coarsened
			key = append(key, ';')
		}
		s := string(key)
		row := pattern[s]
		if row == nil {
			row = make([]float64, k)
			pattern[s] = row
		}
		row[int(cv)] += in.Weight
		total += in.Weight
	}
	if total == 0 {
		return 0, nil
	}
	var consistent float64
	for _, row := range pattern {
		best := 0.0
		for _, w := range row {
			if w > best {
				best = w
			}
		}
		consistent += best
	}
	return consistent / total, nil
}

func appendInt(b []byte, v int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// sizePenalty is subtracted per attribute of a rankerAdapter subset, to
// prefer smaller subsets at equal mean merit.
const sizePenalty = 0.001

// rankerAdapter lifts a single-attribute evaluator into a subset evaluator
// whose merit is the mean per-attribute merit minus a redundancy-free size
// penalty; it lets every ranking evaluator drive every subset search.
type rankerAdapter struct {
	Inner AttributeEvaluator
}

// Name implements SubsetEvaluator.
func (e *rankerAdapter) Name() string { return e.Inner.Name() + "+mean" }

// Prepare implements SubsetEvaluator.
func (e *rankerAdapter) Prepare(d *dataset.Dataset) error {
	return e.Inner.Prepare(d)
}

// EvaluateSubset implements SubsetEvaluator.
func (e *rankerAdapter) EvaluateSubset(cols []int) (float64, error) {
	if len(cols) == 0 {
		return 0, nil
	}
	var total float64
	for _, c := range cols {
		v, err := e.Inner.Evaluate(c)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total/float64(len(cols)) - sizePenalty*float64(len(cols)), nil
}
