package classify

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/algo"
	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// oneR learns a one-attribute rule: for the single best attribute it maps
// each value (or numeric bucket) to the majority class. Numeric attributes
// are discretised greedily with a minimum bucket size, following Holte's
// original method.
type oneR struct {
	minBucket int

	attr       int
	numeric    bool
	cutpoints  []float64 // ascending thresholds for numeric buckets
	valueClass [][]float64
	fallback   []float64
	classIndex int
	numClasses int
}

func init() { register("OneR", func() Classifier { return &oneR{minBucket: 6} }) }

// Name implements Classifier.
func (o *oneR) Name() string { return "OneR" }

// Snapshot codes the trained model for the model store.
func (o *oneR) Snapshot(c binfmt.Codec) {
	c.Int(&o.minBucket)
	c.Int(&o.classIndex)
	if c.F64s(&o.fallback); c.Reading() {
		o.numClasses = len(o.fallback)
	}
	c.Int(&o.attr)
	c.Bool(&o.numeric)
	c.F64s(&o.cutpoints)
	c.F64Rows(&o.valueClass, o.numClasses)
}

// Options implements algo.Parameterized.
func (o *oneR) Options() []option {
	return []option{
		algo.Int("minBucket", "minimum instances per bucket when discretising numeric attributes", &o.minBucket, 1),
	}
}

// SetOption implements algo.Parameterized.
func (o *oneR) SetOption(name, value string) error { return Registry.Set(o, name, value) }

// Train implements Classifier.
func (o *oneR) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	d = d.DeleteWithMissingClass()
	o.classIndex = d.ClassIndex
	o.numClasses = d.NumClasses()
	o.fallback = d.ClassCounts()

	bestErr := math.Inf(1)
	found := false
	for col, a := range d.Attrs {
		if col == d.ClassIndex || a.IsString() {
			continue
		}
		var errW float64
		var tbl [][]float64
		var cuts []float64
		if a.IsNominal() {
			errW, tbl = o.nominalRule(d, col)
		} else {
			errW, cuts, tbl = o.numericRule(d, col)
			if tbl == nil {
				continue
			}
		}
		if errW < bestErr {
			bestErr = errW
			o.attr = col
			o.numeric = a.IsNumeric()
			o.cutpoints = cuts
			o.valueClass = tbl
			found = true
		}
	}
	if !found {
		return fmt.Errorf("classify: OneR found no usable attribute in %q", d.Relation)
	}
	return nil
}

func (o *oneR) nominalRule(d *dataset.Dataset, col int) (float64, [][]float64) {
	a := d.Attrs[col]
	tbl := make([][]float64, a.NumValues())
	for i := range tbl {
		tbl[i] = make([]float64, o.numClasses)
	}
	for _, in := range d.Instances {
		v := in.Values[col]
		if dataset.IsMissing(v) {
			continue
		}
		tbl[int(v)][int(in.Values[d.ClassIndex])] += in.Weight
	}
	var errW float64
	for _, row := range tbl {
		var total, max float64
		for _, w := range row {
			total += w
			if w > max {
				max = w
			}
		}
		errW += total - max
	}
	return errW, tbl
}

func (o *oneR) numericRule(d *dataset.Dataset, col int) (float64, []float64, [][]float64) {
	type pair struct{ v, cls, w float64 }
	var pairs []pair
	for _, in := range d.Instances {
		v := in.Values[col]
		if dataset.IsMissing(v) {
			continue
		}
		pairs = append(pairs, pair{v, in.Values[d.ClassIndex], in.Weight})
	}
	if len(pairs) == 0 {
		return 0, nil, nil
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })

	// Holte's bucketing: grow a bucket until it holds at least minBucket
	// instances of its majority class, then extend it while the following
	// value keeps the same class, cutting only at a class change across a
	// value boundary.
	var cuts []float64
	var tbl [][]float64
	cur := make([]float64, o.numClasses)
	for i, p := range pairs {
		cur[int(p.cls)] += p.w
		maj := maxIdx(cur)
		boundary := i+1 < len(pairs) && pairs[i+1].v != p.v
		classChanges := i+1 < len(pairs) && int(pairs[i+1].cls) != maj
		if boundary && classChanges && cur[maj] >= float64(o.minBucket) {
			cuts = append(cuts, (p.v+pairs[i+1].v)/2)
			tbl = append(tbl, cur)
			cur = make([]float64, o.numClasses)
		}
	}
	tbl = append(tbl, cur)
	// Merge adjacent buckets with the same majority class.
	merged := [][]float64{tbl[0]}
	var mcuts []float64
	for i := 1; i < len(tbl); i++ {
		if maxIdx(tbl[i]) == maxIdx(merged[len(merged)-1]) {
			for c := range tbl[i] {
				merged[len(merged)-1][c] += tbl[i][c]
			}
		} else {
			merged = append(merged, tbl[i])
			mcuts = append(mcuts, cuts[i-1])
		}
	}
	var errW float64
	for _, row := range merged {
		var total, max float64
		for _, w := range row {
			total += w
			if w > max {
				max = w
			}
		}
		errW += total - max
	}
	return errW, mcuts, merged
}

func maxIdx(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Distribution implements Classifier.
func (o *oneR) Distribution(in *dataset.Instance) ([]float64, error) {
	if o.valueClass == nil {
		return nil, fmt.Errorf("classify: OneR is untrained")
	}
	// The rule reads one column; the class cell bounds the width as well,
	// as it does for J48.
	if err := checkWidth(o.Name(), in, max(o.attr, o.classIndex)+1); err != nil {
		return nil, err
	}
	v := in.Values[o.attr]
	var row []float64
	switch {
	case dataset.IsMissing(v):
		row = o.fallback
	case o.numeric:
		b := sort.SearchFloat64s(o.cutpoints, v)
		if b >= len(o.valueClass) {
			b = len(o.valueClass) - 1
		}
		row = o.valueClass[b]
	case v < 0:
		return nil, errNegativeNominal(o.attr, v)
	case v >= float64(len(o.valueClass)):
		row = o.fallback
	default:
		row = o.valueClass[int(v)]
	}
	out := make([]float64, len(row))
	copy(out, row)
	return normalize(out), nil
}
