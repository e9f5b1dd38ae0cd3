package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
)

// ErrWidth is wrapped by a model's error for an instance or block narrower
// than its training schema: a caller mistake, not a server fault.
var ErrWidth = errors.New("schema width mismatch")

// Instance is a single data row. Values are parallel to the dataset's
// attributes: numeric cells hold the measurement, nominal/string cells hold
// the value index, and missing cells hold NaN.
type Instance struct {
	Values []float64
	Weight float64
}

// NewInstance returns an instance with unit weight.
func NewInstance(values []float64) *Instance {
	return &Instance{Values: values, Weight: 1}
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	v := make([]float64, len(in.Values))
	copy(v, in.Values)
	return &Instance{Values: v, Weight: in.Weight}
}

// IsMissing reports whether attribute i is missing in this instance.
func (in *Instance) IsMissing(i int) bool { return IsMissing(in.Values[i]) }

// Dataset is an ordered collection of instances sharing a schema, equivalent
// to WEKA's Instances and the ARFF relation the paper's services exchange.
type Dataset struct {
	Relation   string
	Attrs      []*Attribute
	ClassIndex int // -1 when no class attribute is designated
	Instances  []*Instance

	// cols is the columnar (struct-of-arrays) mirror served by Columns:
	// one contiguous []float64 per attribute. It is authoritative for
	// column-first datasets (FromColumns) and a lazily built cache for
	// row-first ones. It is published atomically with the instance count
	// it reflects, so appends invalidate it implicitly and concurrent
	// first readers never race.
	cols atomic.Pointer[columnMirror]

	// slab is the spare row storage AddRow and Project carve
	// Instance.Values from, so bulk loading costs one allocation per
	// chunk of rows instead of one per row.
	slab []float64
}

// rowSlabChunk is the float64 count of one row-storage slab chunk (32 KiB).
const rowSlabChunk = 4096

// rowSlice carves one row's value storage off the slab, growing it by a
// chunk when exhausted. The carved slice has full capacity m, so callers
// appending to it can never clobber a neighbouring row.
func (d *Dataset) rowSlice() []float64 {
	m := len(d.Attrs)
	if m == 0 {
		return nil
	}
	if len(d.slab) < m {
		rows := rowSlabChunk / m
		if rows < 16 {
			rows = 16
		}
		d.slab = make([]float64, rows*m)
	}
	v := d.slab[:m:m]
	d.slab = d.slab[m:]
	return v
}

// New returns an empty dataset with the given relation name and attributes.
// The class index defaults to -1 (unset).
func New(relation string, attrs ...*Attribute) *Dataset {
	return &Dataset{Relation: relation, Attrs: attrs, ClassIndex: -1}
}

// NumInstances returns the number of rows.
func (d *Dataset) NumInstances() int { return len(d.Instances) }

// NumAttributes returns the number of columns.
func (d *Dataset) NumAttributes() int { return len(d.Attrs) }

// AttributeByName returns the attribute with the given name and its index,
// or (nil, -1) when absent.
func (d *Dataset) AttributeByName(name string) (*Attribute, int) {
	for i, a := range d.Attrs {
		if a.Name == name {
			return a, i
		}
	}
	return nil, -1
}

// SetClassByName designates the class attribute by name.
func (d *Dataset) SetClassByName(name string) error {
	if _, i := d.AttributeByName(name); i >= 0 {
		d.ClassIndex = i
		return nil
	}
	return fmt.Errorf("dataset: no attribute named %q", name)
}

// ClassAttribute returns the designated class attribute, or nil.
func (d *Dataset) ClassAttribute() *Attribute {
	if d.ClassIndex < 0 || d.ClassIndex >= len(d.Attrs) {
		return nil
	}
	return d.Attrs[d.ClassIndex]
}

// NumClasses returns the number of class labels, or 0 when no nominal class
// is designated.
func (d *Dataset) NumClasses() int {
	ca := d.ClassAttribute()
	if ca == nil || !ca.IsNominal() {
		return 0
	}
	return ca.NumValues()
}

// Add appends an instance after validating its width and nominal indices.
func (d *Dataset) Add(in *Instance) error {
	if len(in.Values) != len(d.Attrs) {
		return fmt.Errorf("dataset: instance has %d values, schema has %d attributes",
			len(in.Values), len(d.Attrs))
	}
	for i, v := range in.Values {
		if IsMissing(v) {
			continue
		}
		a := d.Attrs[i]
		if a.Kind != Numeric {
			idx := int(v)
			if float64(idx) != v || idx < 0 || idx >= a.NumValues() {
				return fmt.Errorf("dataset: invalid index %v for attribute %q", v, a.Name)
			}
		}
	}
	if in.Weight == 0 {
		in.Weight = 1
	}
	d.Instances = append(d.Instances, in)
	d.InvalidateColumns()
	return nil
}

// MustAdd appends an instance and panics on schema mismatch. It is intended
// for embedded datasets and tests where the schema is known-correct.
func (d *Dataset) MustAdd(in *Instance) {
	if err := d.Add(in); err != nil {
		panic(err)
	}
}

// AddRow parses a row of string cells according to the schema and appends it.
// The token "?" denotes a missing value.
func (d *Dataset) AddRow(cells []string) error {
	if len(cells) != len(d.Attrs) {
		return fmt.Errorf("dataset: row has %d cells, schema has %d attributes", len(cells), len(d.Attrs))
	}
	vals := d.rowSlice()
	for i, c := range cells {
		c = strings.TrimSpace(c)
		if c == "?" || c == "" {
			vals[i] = Missing
			continue
		}
		a := d.Attrs[i]
		switch a.Kind {
		case Numeric:
			f, err := strconv.ParseFloat(c, 64)
			if err != nil {
				return fmt.Errorf("dataset: attribute %q: %w", a.Name, err)
			}
			vals[i] = f
		default:
			idx, err := a.Intern(c)
			if err != nil {
				return err
			}
			vals[i] = float64(idx)
		}
	}
	d.Instances = append(d.Instances, NewInstance(vals))
	d.InvalidateColumns()
	return nil
}

// CellString formats the cell (instance row, attribute col) as its ARFF token.
func (d *Dataset) CellString(in *Instance, col int) string {
	v := in.Values[col]
	if IsMissing(v) {
		return "?"
	}
	a := d.Attrs[col]
	if a.Kind == Numeric {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return a.Value(int(v))
}

// CloneSchema returns an empty dataset with deep-copied attributes and the
// same class index.
func (d *Dataset) CloneSchema() *Dataset {
	attrs := make([]*Attribute, len(d.Attrs))
	for i, a := range d.Attrs {
		attrs[i] = a.Clone()
	}
	c := New(d.Relation, attrs...)
	c.ClassIndex = d.ClassIndex
	return c
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	c := d.CloneSchema()
	c.Instances = make([]*Instance, len(d.Instances))
	for i, in := range d.Instances {
		c.Instances[i] = in.Clone()
	}
	return c
}

// ShallowWith returns a dataset sharing this schema but holding the given
// instance slice (instances are not copied).
func (d *Dataset) ShallowWith(ins []*Instance) *Dataset {
	c := &Dataset{Relation: d.Relation, Attrs: d.Attrs, ClassIndex: d.ClassIndex, Instances: ins}
	return c
}

// Shuffle permutes the instances using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Instances), func(i, j int) {
		d.Instances[i], d.Instances[j] = d.Instances[j], d.Instances[i]
	})
	d.InvalidateColumns()
}

// ClassCounts returns the per-label weight mass of the class attribute,
// ignoring instances with a missing class.
func (d *Dataset) ClassCounts() []float64 {
	n := d.NumClasses()
	counts := make([]float64, n)
	for _, in := range d.Instances {
		cv := in.Values[d.ClassIndex]
		if IsMissing(cv) {
			continue
		}
		counts[int(cv)] += in.Weight
	}
	return counts
}

// DeleteWithMissingClass returns a shallow dataset without instances whose
// class value is missing.
func (d *Dataset) DeleteWithMissingClass() *Dataset {
	keep := make([]*Instance, 0, len(d.Instances))
	for _, in := range d.Instances {
		if d.ClassIndex >= 0 && in.IsMissing(d.ClassIndex) {
			continue
		}
		keep = append(keep, in)
	}
	return d.ShallowWith(keep)
}

// Project returns a new dataset containing only the attributes at the given
// column indices (deep-copied schema, deep-copied rows). If the class column
// is included its position is tracked; otherwise ClassIndex is -1.
func (d *Dataset) Project(cols []int) (*Dataset, error) {
	attrs := make([]*Attribute, len(cols))
	classAt := -1
	for i, c := range cols {
		if c < 0 || c >= len(d.Attrs) {
			return nil, fmt.Errorf("dataset: column %d out of range", c)
		}
		attrs[i] = d.Attrs[c].Clone()
		if c == d.ClassIndex {
			classAt = i
		}
	}
	out := New(d.Relation, attrs...)
	out.ClassIndex = classAt
	// One slab sized for the whole projection instead of one allocation
	// per row; rowSlice then carves every row from it.
	out.slab = make([]float64, len(d.Instances)*len(cols))
	out.Instances = make([]*Instance, 0, len(d.Instances))
	for _, in := range d.Instances {
		vals := out.rowSlice()
		for i, c := range cols {
			vals[i] = in.Values[c]
		}
		out.Instances = append(out.Instances, &Instance{Values: vals, Weight: in.Weight})
	}
	return out, nil
}

// String returns a short human-readable description of the dataset.
func (d *Dataset) String() string {
	return fmt.Sprintf("%s: %d instances, %d attributes", d.Relation, len(d.Instances), len(d.Attrs))
}
