package regress

import (
	"repro/internal/algo"
)

// Option describes one run-time parameter (getOptions reply unit).
type Option = algo.Option

// Parameterized exposes run-time options (the getOptions operation).
type Parameterized = algo.Parameterized

// Registry holds every regressor the Regressor Web Service offers.
var Registry = algo.NewRegistry[Regressor]("regress", "regressor")

// Register adds a regressor factory; it panics on duplicate names.
func Register(name string, f func() Regressor) { Registry.Register(name, f) }

// New constructs a registered regressor by name.
func New(name string) (Regressor, error) { return Registry.New(name) }

// Names returns the sorted registry names.
func Names() []string { return Registry.Names() }

func init() {
	Register("LinearRegression", func() Regressor { return &LinearRegression{Ridge: 1e-8} })
	Register("KNNRegressor", func() Regressor { return &KNNRegressor{K: 3} })
}

// Options implements Parameterized.
func (lr *LinearRegression) Options() []Option {
	return []Option{
		algo.Float("ridge", "L2 regularisation strength on the normal-equation diagonal", &lr.Ridge, algo.Above(0)),
	}
}

// SetOption implements Parameterized.
func (lr *LinearRegression) SetOption(name, value string) error { return Registry.Set(lr, name, value) }

// Options implements Parameterized.
func (k *KNNRegressor) Options() []Option {
	return []Option{
		algo.Int("k", "number of neighbours", &k.K, 1).Require(),
		algo.Bool("distanceWeight", "weight neighbours by inverse distance", &k.DistanceWeight),
	}
}

// SetOption implements Parameterized.
func (k *KNNRegressor) SetOption(name, value string) error { return Registry.Set(k, name, value) }
