// Package algo is the one algorithm registry behind the general services
// of §4.1. Classifiers, clusterers and regressors each keep a Registry:
// list the algorithms (Names), describe one (Options, the getOptions
// reply), then build a named algorithm from its options (Build). Options
// are applied in one place, Configure, always in sorted name order, so a
// request carrying several bad options is answered with the same error
// every time.
package algo

import (
	"fmt"
	"sort"
	"sync"
)

// Option describes one run-time parameter of an algorithm, the unit of the
// getOptions reply.
type Option struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Default     string `json:"default"`
	Required    bool   `json:"required"`
}

// Parameterized exposes run-time options, mirroring the getOptions
// operation of the general services.
type Parameterized interface {
	// Options describes the parameters the algorithm accepts.
	Options() []Option
	// SetOption sets a parameter by name from its string spelling.
	SetOption(name, value string) error
}

// Named is what every registered algorithm provides: its registry name.
type Named interface {
	Name() string
}

// Registry maps algorithm names to factories of fresh, untrained
// instances of one family.
type Registry[T Named] struct {
	pkg, kind string // error prefix and noun: "classify", "classifier"

	mu        sync.RWMutex
	factories map[string]func() T
}

// NewRegistry returns an empty registry whose errors read
// "<pkg>: unknown <kind> ...".
func NewRegistry[T Named](pkg, kind string) *Registry[T] {
	return &Registry[T]{pkg: pkg, kind: kind, factories: map[string]func() T{}}
}

// Register adds a factory under name. It panics on duplicates;
// registration happens in package init functions.
func (r *Registry[T]) Register(name string, f func() T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		panic(r.pkg + ": duplicate registration of " + name)
	}
	r.factories[name] = f
}

// New constructs a fresh instance of the named algorithm.
func (r *Registry[T]) New(name string) (T, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("%s: unknown %s %q (known: %v)", r.pkg, r.kind, name, r.Names())
	}
	return f(), nil
}

// Names returns the sorted registry names — the list op's reply.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Options returns the option descriptors of the named algorithm, or nil
// when it has no tunable parameters.
func (r *Registry[T]) Options(name string) ([]Option, error) {
	m, err := r.New(name)
	if err != nil {
		return nil, err
	}
	if p, ok := any(m).(Parameterized); ok {
		return p.Options(), nil
	}
	return nil, nil
}

// Configure applies name=value options to m in sorted name order, failing
// on the first option m rejects, and on any option at all when m is not
// Parameterized.
func (r *Registry[T]) Configure(m T, opts map[string]string) error {
	if len(opts) == 0 {
		return nil
	}
	p, ok := any(m).(Parameterized)
	if !ok {
		return fmt.Errorf("%s: %s accepts no options", r.pkg, m.Name())
	}
	keys := make([]string, 0, len(opts))
	for k := range opts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := p.SetOption(k, opts[k]); err != nil {
			return err
		}
	}
	return nil
}

// Build constructs the named algorithm and configures it with opts.
func (r *Registry[T]) Build(name string, opts map[string]string) (T, error) {
	m, err := r.New(name)
	if err == nil {
		err = r.Configure(m, opts)
	}
	return m, err
}

// Factory validates name and opts once, then returns a constructor of
// fresh, identically configured instances — one per cross-validation
// fold. The configuration is deterministic, so once it has succeeded the
// constructor cannot fail.
func (r *Registry[T]) Factory(name string, opts map[string]string) (func() T, error) {
	if _, err := r.Build(name, opts); err != nil {
		return nil, err
	}
	return func() T {
		m, _ := r.Build(name, opts)
		return m
	}, nil
}
