package regress

import (
	"repro/internal/algo"
)

// option describes one run-time parameter (getOptions reply unit).
type option = algo.Option

// Registry holds every regressor the Regressor Web Service offers.
var Registry = algo.NewRegistry[Regressor]("regress", "regressor")

// register adds a regressor factory; it panics on duplicate names.
func register(name string, f func() Regressor) { Registry.Register(name, f) }

func init() {
	register("LinearRegression", func() Regressor { return &LinearRegression{Ridge: 1e-8} })
	register("KNNRegressor", func() Regressor { return &KNNRegressor{K: 3} })
}

// Options implements algo.Parameterized.
func (lr *LinearRegression) Options() []option {
	return []option{
		algo.Float("ridge", "L2 regularisation strength on the normal-equation diagonal", &lr.Ridge, algo.Above(0)),
	}
}

// SetOption implements algo.Parameterized.
func (lr *LinearRegression) SetOption(name, value string) error { return Registry.Set(lr, name, value) }

// Options implements algo.Parameterized.
func (k *KNNRegressor) Options() []option {
	return []option{
		algo.Int("k", "number of neighbours", &k.K, 1).Require(),
		algo.Bool("distanceWeight", "weight neighbours by inverse distance", &k.DistanceWeight),
	}
}

// SetOption implements algo.Parameterized.
func (k *KNNRegressor) SetOption(name, value string) error { return Registry.Set(k, name, value) }
