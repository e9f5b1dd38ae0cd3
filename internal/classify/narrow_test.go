package classify_test

import (
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
