// Package lib is the surface checker's fixture: one case for each
// exemption and each kind of finding.
package lib

import "errors"

// Shape is a named interface that Square satisfies, so Square.Area is no
// finding though nothing calls it on a Square.
type Shape interface{ Area() float64 }

// Square is a Shape.
type Square struct{ Side float64 }

// Area implements Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Total is what uses Shape.Area.
func Total(shapes []Shape) float64 {
	var t float64
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// coded's Code method is reached only through the anonymous interface
// CodeOf hands to errors.As.
type coded struct{}

func (coded) Error() string { return "coded" }
func (coded) Code() string  { return "E1" }

// Fail returns a coded error.
func Fail() error { return coded{} }

// CodeOf finds a Code method through errors.As.
func CodeOf(err error) string {
	var c interface{ Code() string }
	if errors.As(err, &c) {
		return c.Code()
	}
	return ""
}

// Registry is generic: its methods are reached through an instantiation.
type Registry[T any] struct{ items []T }

// Add appends v.
func (r *Registry[T]) Add(v T) { r.items = append(r.items, v) }

// Get returns the i-th item.
func (r *Registry[T]) Get(i int) T { return r.items[i] }

// OnlyBench is used only by the benchmark module.
func OnlyBench() int { return 1 }

// Config is an options struct: the app sets Limit, only a test sets Debug.
type Config struct {
	Limit int
	Debug bool
}

// Run reads both options.
func Run(c Config) int {
	if c.Debug {
		return -c.Limit
	}
	return c.Limit
}

// Option is a functional option.
type Option func(*Config)

// WithLimit is a functional option nothing calls.
func WithLimit(n int) Option { return func(c *Config) { c.Limit = n } }

// Dead is referenced by nothing.
func Dead() {}

// Local is called only inside this package.
func Local() int { return 2 }

// Uses calls Local.
func Uses() int { return Local() }
