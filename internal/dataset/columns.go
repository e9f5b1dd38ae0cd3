package dataset

import "fmt"

// Columnar (struct-of-arrays) storage. A Dataset can expose its cells as
// one contiguous []float64 per attribute: cols[j][i] is instance i's
// value for attribute j, with the usual encoding (numeric cells hold the
// measurement, nominal/string cells the value index, missing cells NaN).
// The scoring and clustering hot loops iterate these slices instead of
// chasing []*Instance pointers, and the dmb1 wire codec (internal/wire)
// reads and writes them directly.
//
// Datasets built row-first (ARFF parsing, AddRow) materialise the column
// mirror lazily on the first Columns/Column call and cache it; any Add
// drops the cache. Code that writes Instance.Values cells in place after
// columns were handed out must call InvalidateColumns. Datasets built
// column-first (FromColumns, the dmb1 decoder) carry the columns as the
// authoritative backing from birth, with the Instances row view carved
// out of a single slab so the legacy row API keeps working.

// columnMirror is a published column mirror and the instance count it
// reflects.
type columnMirror struct {
	cols [][]float64
	rows int
}

// Columns returns the dataset's column-major backing, one contiguous
// slice per attribute. The result is cached; callers must treat it as
// read-only unless they own the dataset exclusively. Concurrent first
// callers may each build the mirror, but every one gets equal cells.
func (d *Dataset) Columns() [][]float64 {
	if m := d.cols.Load(); m != nil && m.rows == len(d.Instances) {
		return m.cols
	}
	n, m := len(d.Instances), len(d.Attrs)
	slab := make([]float64, n*m)
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = slab[j*n : (j+1)*n : (j+1)*n]
	}
	for i, in := range d.Instances {
		for j, v := range in.Values {
			cols[j][i] = v
		}
	}
	d.cols.Store(&columnMirror{cols: cols, rows: n})
	return cols
}

// HasColumns reports whether a current column mirror exists without
// building one — true for column-first datasets and for row-first
// datasets whose mirror is cached and not stale.
func (d *Dataset) HasColumns() bool {
	m := d.cols.Load()
	return m != nil && m.rows == len(d.Instances)
}

// InvalidateColumns drops the cached column mirror. Call it after
// writing Instance.Values cells in place (filters do); the next Columns
// call rebuilds the mirror from the rows.
func (d *Dataset) InvalidateColumns() { d.cols.Store(nil) }

// FromColumns builds a dataset directly from column-major storage:
// cols[j] holds attribute j's values for every row. The slices are
// retained as the dataset's columnar backing — no copy — and the
// Instances row view is carved from one freshly allocated slab so the
// row API stays available. weights may be nil (unit weights). Nominal
// and string cells are validated the way Add validates them: a non-
// integral or out-of-range value index is an error, which is what turns
// a corrupt wire payload into a caller fault instead of a panic deep in
// a scoring loop.
func FromColumns(relation string, attrs []*Attribute, classIndex int, cols [][]float64, weights []float64) (*Dataset, error) {
	if len(cols) != len(attrs) {
		return nil, fmt.Errorf("dataset: %d columns for %d attributes", len(cols), len(attrs))
	}
	if classIndex < -1 || classIndex >= len(attrs) {
		return nil, fmt.Errorf("dataset: class index %d out of range", classIndex)
	}
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	for _, col := range cols {
		if len(col) != rows {
			return nil, checkColumns(attrs, cols, weights, rows)
		}
	}
	if weights != nil && len(weights) != rows {
		return nil, checkColumns(attrs, cols, weights, rows)
	}
	d := New(relation, attrs...)
	d.ClassIndex = classIndex
	// Two slabs serve every row view: one of cells, each Instance aliasing
	// its stripe, and one of the Instances themselves. The cells are
	// transposed a tile of rows at a time, so each column is read once,
	// sequentially — its nominal indices validated on the way — while the
	// strided writes stay inside a tile small enough to sit in L1.
	m := len(attrs)
	slab := make([]float64, rows*m)
	const tile = 64
	for i0 := 0; i0 < rows; i0 += tile {
		i1 := min(i0+tile, rows)
		for j, col := range cols {
			if attrs[j].Kind == Numeric {
				for i, v := range col[i0:i1] {
					slab[(i0+i)*m+j] = v
				}
				continue
			}
			labels := uint(attrs[j].NumValues())
			for i, v := range col[i0:i1] {
				if idx := int(v); (float64(idx) != v || uint(idx) >= labels) && !IsMissing(v) {
					return nil, checkColumns(attrs, cols, weights, rows)
				}
				slab[(i0+i)*m+j] = v
			}
		}
	}
	instances := make([]Instance, rows)
	d.Instances = make([]*Instance, rows)
	for i := range instances {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		instances[i] = Instance{Values: slab[i*m : (i+1)*m : (i+1)*m], Weight: w}
		d.Instances[i] = &instances[i]
	}
	d.cols.Store(&columnMirror{cols: cols, rows: rows})
	return d, nil
}

// checkColumns returns the error FromColumns reports for columns that
// fail it, in the order it promises: column by column, a length mismatch
// or the first invalid nominal index, then the weights.
func checkColumns(attrs []*Attribute, cols [][]float64, weights []float64, rows int) error {
	for j, col := range cols {
		if len(col) != rows {
			return fmt.Errorf("dataset: column %q has %d rows, column %q has %d",
				attrs[j].Name, len(col), attrs[0].Name, rows)
		}
		a := attrs[j]
		if a.Kind == Numeric {
			continue
		}
		for i, v := range col {
			if IsMissing(v) {
				continue
			}
			idx := int(v)
			if float64(idx) != v || idx < 0 || idx >= a.NumValues() {
				return fmt.Errorf("dataset: row %d: invalid index %v for attribute %q", i, v, a.Name)
			}
		}
	}
	return fmt.Errorf("dataset: %d weights for %d rows", len(weights), rows)
}

// ColumnsCopy returns a deep copy of the column mirror, every attribute's
// slice carved from one fresh slab. It is the starting point for
// shape-preserving columnar filters: transform the copy in place, then
// hand it to FromColumns without ever touching the input's backing.
func (d *Dataset) ColumnsCopy() [][]float64 {
	src := d.Columns()
	n, m := len(d.Instances), len(d.Attrs)
	slab := make([]float64, n*m)
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = slab[j*n : (j+1)*n : (j+1)*n]
		copy(cols[j], src[j])
	}
	return cols
}

// WeightsSlice returns every instance weight as one slice (a copy).
func (d *Dataset) WeightsSlice() []float64 {
	out := make([]float64, len(d.Instances))
	for i, in := range d.Instances {
		out[i] = in.Weight
	}
	return out
}
