// Package workflow is the toolkit's workflow engine, reproducing the parts
// of Triana the paper relies on (§4): units (tools) with named input and
// output nodes, cables connecting them, graph execution with parallel
// scheduling, tool import from a WSDL interface (one tool per operation),
// service hierarchy via grouping, XML and GriPhyN-DAX export, the pattern
// operators of ref [9], fault-tolerant re-dispatch across a
// registry-backed pool of equivalent services, and progress monitoring.
package workflow

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Values is the data travelling over cables: named string payloads (ARFF
// documents, model text, DOT graphs, base64 images, numbers as strings —
// the same part model as the SOAP layer).
type Values map[string]string

// Unit is one tool: a named computation with declared input and output
// nodes. Units must be safe for reuse across executions.
type Unit interface {
	// Name returns the tool's display name.
	Name() string
	// Inputs returns the input node names.
	Inputs() []string
	// Outputs returns the output node names.
	Outputs() []string
	// Run consumes the input values and produces output values. in is
	// the unit's own copy, or nil when its task has neither params nor
	// cabled inputs; a unit reads it and must not write to it.
	Run(ctx context.Context, in Values) (Values, error)
}

// Spec describes a unit for XML serialisation: a registered kind plus its
// configuration.
type Spec struct {
	Kind   string
	Config map[string]string
}

// Specced units can round-trip through workflow XML.
type Specced interface {
	Unit
	Spec() Spec
}

// unitFactory rebuilds a unit from its serialised configuration.
type unitFactory func(config map[string]string) (Unit, error)

var (
	unitRegMu sync.RWMutex
	unitReg   = map[string]unitFactory{}
)

// registerUnitKind installs a factory for deserialising units of a kind; it
// panics on duplicates.
func registerUnitKind(kind string, f unitFactory) {
	unitRegMu.Lock()
	defer unitRegMu.Unlock()
	if _, dup := unitReg[kind]; dup {
		panic("workflow: duplicate unit kind " + kind)
	}
	unitReg[kind] = f
}

// newUnitOfKind rebuilds a unit from a Spec.
func newUnitOfKind(s Spec) (Unit, error) {
	unitRegMu.RLock()
	f, ok := unitReg[s.Kind]
	unitRegMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workflow: unknown unit kind %q", s.Kind)
	}
	return f(s.Config)
}

// FuncUnit adapts a Go function into a Unit.
type FuncUnit struct {
	UnitName string
	In, Out  []string
	Fn       func(ctx context.Context, in Values) (Values, error)
}

// Name implements Unit.
func (u *FuncUnit) Name() string { return u.UnitName }

// Inputs implements Unit.
func (u *FuncUnit) Inputs() []string { return u.In }

// Outputs implements Unit.
func (u *FuncUnit) Outputs() []string { return u.Out }

// Run implements Unit.
func (u *FuncUnit) Run(ctx context.Context, in Values) (Values, error) {
	return u.Fn(ctx, in)
}

// ConstUnit emits fixed values — the "local dataset" and "input string"
// style tools of the Common folder (§4, Figure 1).
type ConstUnit struct {
	UnitName string
	Values   Values
}

// Name implements Unit.
func (u *ConstUnit) Name() string { return u.UnitName }

// Inputs implements Unit.
func (u *ConstUnit) Inputs() []string { return nil }

// Outputs implements Unit.
func (u *ConstUnit) Outputs() []string {
	out := make([]string, 0, len(u.Values))
	for k := range u.Values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run implements Unit.
func (u *ConstUnit) Run(ctx context.Context, in Values) (Values, error) {
	out := Values{}
	for k, v := range u.Values {
		out[k] = v
	}
	return out, nil
}

// Spec implements Specced.
func (u *ConstUnit) Spec() Spec {
	cfg := map[string]string{"name": u.UnitName}
	for k, v := range u.Values {
		cfg["value."+k] = v
	}
	return Spec{Kind: "const", Config: cfg}
}

// ViewerUnit captures its input for inspection — the StringViewer /
// TreeViewer display tools. The captured values are available from Seen
// after execution.
type ViewerUnit struct {
	UnitName string
	Port     string

	mu   sync.Mutex
	seen []string
}

// Name implements Unit.
func (u *ViewerUnit) Name() string { return u.UnitName }

// Inputs implements Unit.
func (u *ViewerUnit) Inputs() []string { return []string{u.port()} }

// Outputs implements Unit.
func (u *ViewerUnit) Outputs() []string { return []string{u.port()} }

func (u *ViewerUnit) port() string {
	if u.Port == "" {
		return "value"
	}
	return u.Port
}

// Run implements Unit: it records and passes through the value.
func (u *ViewerUnit) Run(ctx context.Context, in Values) (Values, error) {
	v, ok := in[u.port()]
	if !ok {
		return nil, fmt.Errorf("workflow: viewer %s: no %q input", u.UnitName, u.port())
	}
	u.mu.Lock()
	u.seen = append(u.seen, v)
	u.mu.Unlock()
	return Values{u.port(): v}, nil
}

// Seen returns the captured values in arrival order.
func (u *ViewerUnit) Seen() []string {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]string(nil), u.seen...)
}

// Spec implements Specced.
func (u *ViewerUnit) Spec() Spec {
	return Spec{Kind: "viewer", Config: map[string]string{"name": u.UnitName, "port": u.port()}}
}

func init() {
	registerUnitKind("const", func(cfg map[string]string) (Unit, error) {
		u := &ConstUnit{UnitName: cfg["name"], Values: Values{}}
		for k, v := range cfg {
			if len(k) > 6 && k[:6] == "value." {
				u.Values[k[6:]] = v
			}
		}
		return u, nil
	})
	registerUnitKind("viewer", func(cfg map[string]string) (Unit, error) {
		return &ViewerUnit{UnitName: cfg["name"], Port: cfg["port"]}, nil
	})
}
