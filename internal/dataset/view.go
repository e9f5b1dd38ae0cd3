package dataset

import (
	"fmt"
	"math/rand"
)

// View is a zero-copy, read-only row selection over a parent Dataset: an
// index slice plus a pointer to the parent, sharing its schema and
// Instance storage. Folding, bootstrap sampling and train/test assembly
// build Views instead of copying instance slices, so a k-fold
// cross-validation touches k index slices rather than k near-full
// copies of the data. Call Materialize to obtain a *Dataset (a shallow
// wrapper re-using the parent's Instance pointers) wherever an API
// still wants one.
type View struct {
	parent *Dataset
	rows   []int
}

// NewView returns a view of d selecting the given parent row indices.
// The slice is retained, not copied.
func NewView(d *Dataset, rows []int) *View {
	return &View{parent: d, rows: rows}
}

// All returns a view covering every row of d in order.
func All(d *Dataset) *View {
	rows := make([]int, len(d.Instances))
	for i := range rows {
		rows[i] = i
	}
	return &View{parent: d, rows: rows}
}

// Parent returns the dataset the view selects from.
func (v *View) Parent() *Dataset { return v.parent }

// NumInstances returns the number of selected rows.
func (v *View) NumInstances() int { return len(v.rows) }

// Instance returns the i-th selected instance.
func (v *View) Instance(i int) *Instance { return v.parent.Instances[v.rows[i]] }

// Materialize wraps the selection as a *Dataset sharing the parent's
// schema and Instance pointers — only the []*Instance header is
// allocated, never the values.
func (v *View) Materialize() *Dataset {
	ins := make([]*Instance, len(v.rows))
	for i, r := range v.rows {
		ins[i] = v.parent.Instances[r]
	}
	return v.parent.ShallowWith(ins)
}

// FoldsView returns k cross-validation folds as views: folds[i] selects
// the held-out test rows of fold i. When the class attribute is nominal
// the folds are stratified. It consumes rng identically to the
// deprecated Folds, so a given (dataset, k, seed) yields the same fold
// membership through either API.
func FoldsView(d *Dataset, k int, rng *rand.Rand) ([]*View, error) {
	if k < 2 {
		return nil, fmt.Errorf("dataset: need at least 2 folds, got %d", k)
	}
	if k > d.NumInstances() {
		return nil, fmt.Errorf("dataset: %d folds exceed %d instances", k, d.NumInstances())
	}
	ordered := make([]int, 0, len(d.Instances))
	ca := d.ClassAttribute()
	if ca != nil && ca.IsNominal() {
		// Round-robin by class for stratification.
		byClass := make([][]int, ca.NumValues()+1)
		for i, in := range d.Instances {
			v := in.Values[d.ClassIndex]
			if IsMissing(v) {
				byClass[ca.NumValues()] = append(byClass[ca.NumValues()], i)
			} else {
				byClass[int(v)] = append(byClass[int(v)], i)
			}
		}
		for _, bucket := range byClass {
			rng.Shuffle(len(bucket), func(i, j int) { bucket[i], bucket[j] = bucket[j], bucket[i] })
			ordered = append(ordered, bucket...)
		}
	} else {
		for i := range d.Instances {
			ordered = append(ordered, i)
		}
		rng.Shuffle(len(ordered), func(i, j int) { ordered[i], ordered[j] = ordered[j], ordered[i] })
	}
	rows := make([][]int, k)
	for i := range rows {
		rows[i] = make([]int, 0, len(ordered)/k+1)
	}
	for i, r := range ordered {
		rows[i%k] = append(rows[i%k], r)
	}
	folds := make([]*View, k)
	for i := range folds {
		folds[i] = &View{parent: d, rows: rows[i]}
	}
	return folds, nil
}

// TrainTestViewForFold assembles the train/test views for fold i: test
// is folds[i], train the concatenation of every other fold.
func TrainTestViewForFold(d *Dataset, folds []*View, i int) (train, test *View) {
	n := 0
	for j, f := range folds {
		if j != i {
			n += len(f.rows)
		}
	}
	trRows := make([]int, 0, n)
	for j, f := range folds {
		if j != i {
			trRows = append(trRows, f.rows...)
		}
	}
	return &View{parent: d, rows: trRows}, folds[i]
}

// ResampleView returns a bootstrap sample of d with n rows drawn with
// replacement using rng (bagging substrate), as a view.
func ResampleView(d *Dataset, n int, rng *rand.Rand) *View {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(len(d.Instances))
	}
	return &View{parent: d, rows: rows}
}
