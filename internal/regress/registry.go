package regress

import (
	"fmt"
	"strconv"

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
	Register("LinearRegression", func() Regressor { return &LinearRegression{} })
	Register("KNNRegressor", func() Regressor { return &KNNRegressor{K: 3} })
}

// Options implements Parameterized.
func (lr *LinearRegression) Options() []Option {
	return []Option{
		{Name: "ridge", Description: "L2 regularisation strength on the normal-equation diagonal", Default: "1e-8"},
	}
}

// SetOption implements Parameterized.
func (lr *LinearRegression) SetOption(name, value string) error {
	switch name {
	case "ridge":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("regress: LinearRegression ridge must be a non-negative number, got %q", value)
		}
		lr.Ridge = v
	default:
		return fmt.Errorf("regress: LinearRegression has no option %q", name)
	}
	return nil
}

// Options implements Parameterized.
func (k *KNNRegressor) Options() []Option {
	return []Option{
		{Name: "k", Description: "number of neighbours", Default: "3", Required: true},
		{Name: "distanceWeight", Description: "weight neighbours by inverse distance", Default: "false"},
	}
}

// SetOption implements Parameterized.
func (k *KNNRegressor) SetOption(name, value string) error {
	switch name {
	case "k":
		n, err := strconv.Atoi(value)
		if err != nil || n < 1 {
			return fmt.Errorf("regress: KNNRegressor k must be a positive integer, got %q", value)
		}
		k.K = n
	case "distanceWeight":
		b, err := strconv.ParseBool(value)
		if err != nil {
			return fmt.Errorf("regress: KNNRegressor distanceWeight must be boolean, got %q", value)
		}
		k.DistanceWeight = b
	default:
		return fmt.Errorf("regress: KNNRegressor has no option %q", name)
	}
	return nil
}
