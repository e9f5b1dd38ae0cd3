package classify_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/regress"
)

// TestNarrowInputRejected: a row or block narrower than the schema a model
// was trained on is an error naming both widths, on the row and the block
// path alike, never a panic or a silently short score.
func TestNarrowInputRejected(t *testing.T) {
	bc := datagen.BreastCancer()
	bcNarrow, err := bc.Project([]int{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	wn := datagen.WeatherNumeric()
	wn.ClassIndex = 2 // humidity: a numeric target
	wnNarrow, err := wn.Project([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	type scorer struct {
		row   func(*dataset.Instance) error
		block func(*dataset.Dataset) error
	}
	classifier := func(name string) scorer {
		c, err := classify.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(bc); err != nil {
			t.Fatal(err)
		}
		return scorer{
			row:   func(in *dataset.Instance) error { _, err := c.Distribution(in); return err },
			block: func(d *dataset.Dataset) error { _, _, err := classify.PredictBatch(c, d); return err },
		}
	}
	regressor := func(r regress.Regressor) scorer {
		if err := r.Train(wn); err != nil {
			t.Fatal(err)
		}
		return scorer{
			row:   func(in *dataset.Instance) error { _, err := r.Predict(in); return err },
			block: func(d *dataset.Dataset) error { _, err := regress.PredictBatch(r, d); return err },
		}
	}
	for _, tc := range []struct {
		name   string
		s      scorer
		narrow *dataset.Dataset
		want   string
	}{
		{"J48", classifier("J48"), bcNarrow, "J48 instance has 2 values, model expects 10"},
		{"OneR", classifier("OneR"), bcNarrow, "OneR instance has 2 values, model expects 10"},
		{"RandomForest", classifier("RandomForest"), bcNarrow, "RandomTree instance has 2 values, model expects 10"},
		{"NaiveBayes", classifier("NaiveBayes"), bcNarrow, "NaiveBayes instance has 2 values, model expects 10"},
		{"KNNRegressor", regressor(&regress.KNNRegressor{}), wnNarrow, "KNNRegressor instance has 2 values, model expects 5"},
		{"LinearRegression", regressor(&regress.LinearRegression{}), wnNarrow, "LinearRegression instance has 2 values, model expects 5"},
	} {
		cd, err := dataset.FromColumns(tc.narrow.Relation, tc.narrow.Attrs, tc.narrow.ClassIndex, tc.narrow.Columns(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for path, err := range map[string]error{
			"row":                tc.s.row(tc.narrow.Instances[0]),
			"row-backed block":   tc.s.block(tc.narrow),
			"column-first block": tc.s.block(cd),
		} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s %s: %v, want an error containing %q", tc.name, path, err, tc.want)
			}
		}
	}
}

// TestOutOfRangeNominal: a block that declares a model's nominal columns
// numeric can carry any value in them. Every registered classifier
// answers such a row, on the row and the block path, with a distribution
// or an error wrapping dataset.ErrWidth, never a panic. The trees and
// NaiveBayes reject a negative value and score one past the last label as
// the last label.
func TestOutOfRangeNominal(t *testing.T) {
	bc := datagen.BreastCancer()
	// block returns bc's first rows with every other column declared
	// numeric and set to v.
	block := func(v float64) *dataset.Dataset {
		attrs := make([]*dataset.Attribute, len(bc.Attrs))
		cols := bc.Columns()
		for col, a := range bc.Attrs {
			attrs[col] = a
			if col != bc.ClassIndex {
				attrs[col] = dataset.NewNumericAttribute(a.Name)
				cols[col] = make([]float64, len(cols[col]))
				for i := range cols[col] {
					cols[col][i] = v
				}
			}
		}
		d, err := dataset.FromColumns(bc.Relation, attrs, bc.ClassIndex, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// The last label of every column: BreastCancer's columns differ in
	// label count, so a clamped value is compared per column.
	last := block(0)
	for col, a := range bc.Attrs {
		if col != bc.ClassIndex {
			for _, in := range last.Instances {
				in.Values[col] = float64(a.NumValues() - 1)
			}
		}
	}
	clamps := map[string]bool{"J48": true, "RandomTree": true, "RandomForest": true, "Bagging": true, "NaiveBayes": true}
	for _, name := range classify.Names() {
		c, err := classify.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(bc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, want, err := classify.PredictBatch(c, last)
		if err != nil {
			t.Fatalf("%s: last labels: %v", name, err)
		}
		for _, v := range []float64{-1, 2.5, 7, 1e300, -1e300, math.Inf(1), math.Inf(-1)} {
			d := block(v)
			var rowDists [][]float64
			for path, score := range map[string]func() error{
				"row": func() error {
					for _, in := range d.Instances {
						dist, err := c.Distribution(in)
						if err != nil {
							return err
						}
						rowDists = append(rowDists, dist)
					}
					return nil
				},
				"block": func() error { _, _, err := classify.PredictBatch(c, d); return err },
			} {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					return score()
				}()
				if err != nil && !errors.Is(err, dataset.ErrWidth) {
					t.Errorf("%s %s at %v: %v, want a distribution or ErrWidth", name, path, v, err)
				}
				if !clamps[name] || path != "row" {
					continue
				}
				switch {
				case v < 0 && err == nil:
					t.Errorf("%s at %v: scored, want ErrWidth", name, v)
				case v > 7 && err != nil:
					t.Errorf("%s at %v: %v, want the last label's score", name, v, err)
				case v > 7:
					for i, dist := range rowDists {
						for k := range dist {
							if math.Float64bits(dist[k]) != math.Float64bits(want[i][k]) {
								t.Fatalf("%s at %v row %d: %v, want the last label's %v", name, v, i, dist, want[i])
							}
						}
					}
				}
			}
		}
	}
}
