package model

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/regress"
)

// applyDefaults sets every option p advertises to its advertised default.
func applyDefaults(t *testing.T, m any) {
	t.Helper()
	p, ok := m.(algo.Parameterized)
	if !ok {
		return
	}
	for _, o := range p.Options() {
		if err := p.SetOption(o.Name, o.Default); err != nil {
			t.Fatalf("default %s=%q: %v", o.Name, o.Default, err)
		}
	}
}

// TestAdvertisedDefaultsAreTheDefaults: for every registered algorithm of
// the three families, applying each getOptions default to a fresh instance
// builds the same model as the unconfigured instance — identical DMM1
// bytes for classifiers, identical assignments for clusterers, identical
// predictions for regressors.
func TestAdvertisedDefaultsAreTheDefaults(t *testing.T) {
	bc := datagen.BreastCancer()
	for _, name := range classify.Names() {
		t.Run(name, func(t *testing.T) {
			var snaps [2][]byte
			for i := range snaps {
				c, err := classify.New(name)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					applyDefaults(t, c)
				}
				if err := c.Train(bc.Clone()); err != nil {
					t.Fatal(err)
				}
				if snaps[i], err = Marshal(c); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(snaps[0], snaps[1]) {
				t.Errorf("advertised defaults change the model (%d vs %d snapshot bytes)",
					len(snaps[0]), len(snaps[1]))
			}
		})
	}
	gc := datagen.GaussianClusters(3, 60, 4, 3.0, 42)
	for _, name := range cluster.Names() {
		t.Run(name, func(t *testing.T) {
			var assign [2][]int
			for i := range assign {
				c, err := cluster.New(name)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					applyDefaults(t, c)
				}
				if err := c.Build(gc.Clone()); err != nil {
					t.Fatal(err)
				}
				if assign[i], err = cluster.Assignments(c, gc); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(assign[0], assign[1]) {
				t.Error("advertised defaults change the assignments")
			}
		})
	}
	wn := datagen.WeatherNumeric()
	if err := wn.SetClassByName("temperature"); err != nil {
		t.Fatal(err)
	}
	for _, name := range regress.Names() {
		t.Run(name, func(t *testing.T) {
			var pred [2][]float64
			for i := range pred {
				r, err := regress.New(name)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					applyDefaults(t, r)
				}
				if err := r.Train(wn.Clone()); err != nil {
					t.Fatal(err)
				}
				if pred[i], err = regress.PredictBatch(r, wn); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.EqualFunc(pred[0], pred[1], func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Error("advertised defaults change the predictions")
			}
		})
	}
}
