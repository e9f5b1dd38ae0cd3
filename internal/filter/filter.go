// Package filter implements dataset transformation tools — the "set of
// tools to manipulate different data types" §3 requires beyond format
// conversion: discretisation, normalisation, standardisation,
// missing-value replacement and attribute removal, in the style of WEKA's
// unsupervised filters. Filters return new datasets; inputs are never
// mutated. Each filter has one body: it transforms a copy of the input's
// columns and returns a column-first dataset (dataset.FromColumns), which
// serves row-built and wire-decoded inputs alike.
package filter

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Filter transforms a dataset. Apply never changes the input's schema or
// cells; it reads the input through d.Columns().
type Filter interface {
	Name() string
	Apply(d *dataset.Dataset) (*dataset.Dataset, error)
}

// ApplyColumns is f.Apply(d). Every filter builds its output column-first
// (dataset.FromColumns), so there is no separate columnar path to select;
// the function remains as the entry point the benchmark module calls.
func ApplyColumns(f Filter, d *dataset.Dataset) (*dataset.Dataset, error) {
	return f.Apply(d)
}

// cloneAttrs deep-copies the schema for a filter output.
func cloneAttrs(d *dataset.Dataset) []*dataset.Attribute {
	attrs := make([]*dataset.Attribute, len(d.Attrs))
	for i, a := range d.Attrs {
		attrs[i] = a.Clone()
	}
	return attrs
}

// Discretize bins numeric attributes into nominal ranges.
type Discretize struct {
	// Bins is the number of intervals (default 10).
	Bins int
	// EqualFrequency selects equal-frequency binning instead of
	// equal-width.
	EqualFrequency bool
	// Columns restricts the filter to these column indices (nil = every
	// numeric non-class column).
	Columns []int
}

// Name implements Filter.
func (f *Discretize) Name() string { return "Discretize" }

// Apply implements Filter.
func (f *Discretize) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	target, cuts, attrs, err := f.plan(d)
	if err != nil {
		return nil, err
	}
	cols := d.ColumnsCopy()
	for c := range target {
		for i, v := range cols[c] {
			if dataset.IsMissing(v) {
				continue
			}
			cols[c][i] = float64(binOf(cuts[c], v))
		}
	}
	return dataset.FromColumns(d.Relation, attrs, d.ClassIndex, cols, d.WeightsSlice())
}

// plan computes the target columns, their cutpoints, and the output
// schema.
func (f *Discretize) plan(d *dataset.Dataset) (map[int]bool, map[int][]float64, []*dataset.Attribute, error) {
	bins := f.Bins
	if bins <= 0 {
		bins = 10
	}
	target := map[int]bool{}
	if f.Columns != nil {
		for _, c := range f.Columns {
			if c < 0 || c >= d.NumAttributes() {
				return nil, nil, nil, fmt.Errorf("filter: column %d out of range", c)
			}
			if !d.Attrs[c].IsNumeric() {
				return nil, nil, nil, fmt.Errorf("filter: column %d (%s) is not numeric", c, d.Attrs[c].Name)
			}
			target[c] = true
		}
	} else {
		for c, a := range d.Attrs {
			if c != d.ClassIndex && a.IsNumeric() {
				target[c] = true
			}
		}
	}
	// Compute cutpoints per target column.
	cuts := map[int][]float64{}
	for c := range target {
		vals := d.NumericColumn(c)
		if len(vals) == 0 {
			cuts[c] = nil
			continue
		}
		if f.EqualFrequency {
			sort.Float64s(vals)
			var cp []float64
			for b := 1; b < bins; b++ {
				idx := b * len(vals) / bins
				if idx > 0 && idx < len(vals) {
					// Cut between the neighbouring values so the boundary
					// value lands in the lower bin.
					cp = append(cp, (vals[idx-1]+vals[idx])/2)
				}
			}
			cuts[c] = dedupFloats(cp)
		} else {
			min, max := vals[0], vals[0]
			for _, v := range vals {
				min, max = math.Min(min, v), math.Max(max, v)
			}
			if max == min {
				cuts[c] = nil
				continue
			}
			var cp []float64
			width := (max - min) / float64(bins)
			for b := 1; b < bins; b++ {
				cp = append(cp, min+float64(b)*width)
			}
			cuts[c] = cp
		}
	}
	// Build the new schema.
	attrs := make([]*dataset.Attribute, d.NumAttributes())
	for c, a := range d.Attrs {
		if !target[c] {
			attrs[c] = a.Clone()
			continue
		}
		cp := cuts[c]
		labels := make([]string, len(cp)+1)
		for b := range labels {
			lo, hi := "-inf", "inf"
			if b > 0 {
				lo = fmt.Sprintf("%.4g", cp[b-1])
			}
			if b < len(cp) {
				hi = fmt.Sprintf("%.4g", cp[b])
			}
			labels[b] = "(" + lo + "-" + hi + "]"
		}
		attrs[c] = dataset.NewNominalAttribute(a.Name, labels...)
	}
	return target, cuts, attrs, nil
}

func binOf(cuts []float64, v float64) int {
	return sort.SearchFloat64s(cuts, v)
}

func dedupFloats(xs []float64) []float64 {
	sort.Float64s(xs)
	out := xs[:0]
	for i, v := range xs {
		if i == 0 || v != xs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Normalize rescales numeric attributes linearly into [0,1].
type Normalize struct{}

// Name implements Filter.
func (Normalize) Name() string { return "Normalize" }

// Apply implements Filter.
func (Normalize) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	cols := d.ColumnsCopy()
	for c, a := range d.Attrs {
		if c == d.ClassIndex || !a.IsNumeric() {
			continue
		}
		vals := d.NumericColumn(c)
		if len(vals) == 0 {
			continue
		}
		min, max := vals[0], vals[0]
		for _, v := range vals {
			min, max = math.Min(min, v), math.Max(max, v)
		}
		span := max - min
		for i, v := range cols[c] {
			if dataset.IsMissing(v) {
				continue
			}
			if span == 0 {
				cols[c][i] = 0
			} else {
				cols[c][i] = (v - min) / span
			}
		}
	}
	return dataset.FromColumns(d.Relation, cloneAttrs(d), d.ClassIndex, cols, d.WeightsSlice())
}

// Standardize rescales numeric attributes to zero mean, unit variance.
type Standardize struct{}

// Name implements Filter.
func (Standardize) Name() string { return "Standardize" }

// Apply implements Filter.
func (Standardize) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	cols := d.ColumnsCopy()
	for c, a := range d.Attrs {
		if c == d.ClassIndex || !a.IsNumeric() {
			continue
		}
		vals := d.NumericColumn(c)
		if len(vals) < 2 {
			continue
		}
		var sum, sumSq float64
		for _, v := range vals {
			sum += v
			sumSq += v * v
		}
		n := float64(len(vals))
		mean := sum / n
		variance := sumSq/n - mean*mean
		sd := math.Sqrt(math.Max(variance, 0))
		for i, v := range cols[c] {
			if dataset.IsMissing(v) {
				continue
			}
			if sd == 0 {
				cols[c][i] = 0
			} else {
				cols[c][i] = (v - mean) / sd
			}
		}
	}
	return dataset.FromColumns(d.Relation, cloneAttrs(d), d.ClassIndex, cols, d.WeightsSlice())
}

// ReplaceMissing fills missing cells with the column mean (numeric) or mode
// (nominal).
type ReplaceMissing struct{}

// Name implements Filter.
func (ReplaceMissing) Name() string { return "ReplaceMissingValues" }

// Apply implements Filter.
func (ReplaceMissing) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	cols := d.ColumnsCopy()
	for c, a := range d.Attrs {
		if c == d.ClassIndex {
			continue
		}
		var fill float64
		switch {
		case a.IsNumeric():
			vals := d.NumericColumn(c)
			if len(vals) == 0 {
				continue
			}
			var sum float64
			for _, v := range vals {
				sum += v
			}
			fill = sum / float64(len(vals))
		case a.IsNominal():
			// Ascending scan with a strict > makes the mode tie-break
			// deterministic (smallest index wins).
			counts := d.ValueCounts(c)
			best, bestW := -1, -1.0
			for v, w := range counts {
				if w > bestW {
					best, bestW = v, w
				}
			}
			if best < 0 {
				continue
			}
			fill = float64(best)
		default:
			continue
		}
		for i, v := range cols[c] {
			if dataset.IsMissing(v) {
				cols[c][i] = fill
			}
		}
	}
	return dataset.FromColumns(d.Relation, cloneAttrs(d), d.ClassIndex, cols, d.WeightsSlice())
}

// RemoveAttributes drops the named columns (the class attribute cannot be
// removed).
type RemoveAttributes struct {
	Names []string
}

// Name implements Filter.
func (RemoveAttributes) Name() string { return "Remove" }

// Apply implements Filter.
func (f RemoveAttributes) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	keep, err := f.keepColumns(d)
	if err != nil {
		return nil, err
	}
	return projectColumns(d, keep)
}

// keepColumns resolves the surviving column indices.
func (f RemoveAttributes) keepColumns(d *dataset.Dataset) ([]int, error) {
	drop := map[string]bool{}
	for _, n := range f.Names {
		a, i := d.AttributeByName(n)
		if a == nil {
			return nil, fmt.Errorf("filter: no attribute %q", n)
		}
		if i == d.ClassIndex {
			return nil, fmt.Errorf("filter: cannot remove the class attribute %q", n)
		}
		drop[n] = true
	}
	var keep []int
	for i, a := range d.Attrs {
		if !drop[a.Name] {
			keep = append(keep, i)
		}
	}
	return keep, nil
}

// projectColumns builds a column-backed projection of d onto keep.
func projectColumns(d *dataset.Dataset, keep []int) (*dataset.Dataset, error) {
	src := d.Columns()
	rows := d.NumInstances()
	attrs := make([]*dataset.Attribute, len(keep))
	cols := make([][]float64, len(keep))
	slab := make([]float64, rows*len(keep))
	classAt := -1
	for i, c := range keep {
		attrs[i] = d.Attrs[c].Clone()
		cols[i] = slab[i*rows : (i+1)*rows : (i+1)*rows]
		copy(cols[i], src[c])
		if c == d.ClassIndex {
			classAt = i
		}
	}
	return dataset.FromColumns(d.Relation, attrs, classAt, cols, d.WeightsSlice())
}

// KeepAttributes is the complement of RemoveAttributes: it projects onto
// the named columns plus the class.
type KeepAttributes struct {
	Names []string
}

// Name implements Filter.
func (KeepAttributes) Name() string { return "Keep" }

// Apply implements Filter.
func (f KeepAttributes) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	keep, err := f.keepColumns(d)
	if err != nil {
		return nil, err
	}
	return projectColumns(d, keep)
}

// keepColumns resolves the surviving column indices.
func (f KeepAttributes) keepColumns(d *dataset.Dataset) ([]int, error) {
	var cols []int
	for _, n := range f.Names {
		_, i := d.AttributeByName(n)
		if i < 0 {
			return nil, fmt.Errorf("filter: no attribute %q", n)
		}
		cols = append(cols, i)
	}
	if d.ClassIndex >= 0 {
		found := false
		for _, c := range cols {
			if c == d.ClassIndex {
				found = true
			}
		}
		if !found {
			cols = append(cols, d.ClassIndex)
		}
	}
	sort.Ints(cols)
	return cols, nil
}

// chain applies filters in order.
type chain []Filter

// Name implements Filter.
func (c chain) Name() string {
	names := make([]string, len(c))
	for i, f := range c {
		names[i] = f.Name()
	}
	return strings.Join(names, "->")
}

// Apply implements Filter.
func (c chain) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	cur := d
	for _, f := range c {
		next, err := f.Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("filter: %s: %w", f.Name(), err)
		}
		cur = next
	}
	return cur, nil
}
