package algo

import (
	"fmt"
	"strings"
	"testing"
)

// knob is a test algorithm: options a and b take only "ok".
type knob struct{ a, b string }

func (k *knob) Name() string { return "Knob" }

func (k *knob) Options() []Option {
	return []Option{Enum("a", "first", &k.a, "ok"), Enum("b", "second", &k.b, "ok")}
}

func (k *knob) SetOption(name, value string) error { return testReg.Set(k, name, value) }

// plain takes no options.
type plain struct{}

func (plain) Name() string { return "Plain" }

func testRegistry() *Registry[Named] {
	r := NewRegistry[Named]("test", "widget")
	r.Register("Knob", func() Named { return &knob{} })
	r.Register("Plain", func() Named { return plain{} })
	return r
}

// testReg holds Widget and answers every test algorithm's SetOption.
var testReg = NewRegistry[Named]("test", "widget")

func init() {
	testReg.Register("Widget", func() Named { return &widget{n: 3, seed: -7, x: 0.25, y: 1e-8, colour: 1} })
}

func TestRegistryCatalogue(t *testing.T) {
	r := testRegistry()
	if got := strings.Join(r.Names(), ","); got != "Knob,Plain" {
		t.Fatalf("Names = %s", got)
	}
	if _, err := r.New("Nope"); err == nil || err.Error() != `test: unknown widget "Nope" (known: [Knob Plain])` {
		t.Fatalf("New(Nope) = %v", err)
	}
	if opts, err := r.Options("Knob"); err != nil || len(opts) != 2 {
		t.Fatalf("Options(Knob) = %v, %v", opts, err)
	}
	if opts, err := r.Options("Plain"); err != nil || opts != nil {
		t.Fatalf("Options(Plain) = %v, %v", opts, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Register("Knob", func() Named { return &knob{} })
}

// TestConfigureSortedOrder: options apply in sorted name order, so the
// first bad name in that order answers, whatever the map's order.
func TestConfigureSortedOrder(t *testing.T) {
	r := testRegistry()
	for i := 0; i < 50; i++ {
		m, err := r.Build("Knob", map[string]string{"zz": "1", "b": "x", "a": "ok", "c": "2"})
		if err == nil || err.Error() != `test: Knob b must be one of ok, got "x"` {
			t.Fatalf("Build = %v, want the b error", err)
		}
		if k := m.(*knob); k.a != "ok" || k.b != "" {
			t.Fatalf("applied a=%q b=%q before failing, want only a", k.a, k.b)
		}
	}
	if _, err := r.Build("Plain", map[string]string{"a": "ok"}); err == nil ||
		err.Error() != "test: Plain accepts no options" {
		t.Fatalf("Build(Plain, opts) = %v", err)
	}
	if _, err := r.Build("Plain", nil); err != nil {
		t.Fatalf("Build(Plain, nil) = %v", err)
	}
}

// TestFactory: validation happens once, up front; the constructor then
// hands out fresh, configured instances.
func TestFactory(t *testing.T) {
	r := testRegistry()
	if _, err := r.Factory("Knob", map[string]string{"a": "bad"}); err == nil {
		t.Fatal("Factory accepted a bad option")
	}
	if _, err := r.Factory("Nope", nil); err == nil {
		t.Fatal("Factory accepted an unknown name")
	}
	f, err := r.Factory("Knob", map[string]string{"b": "ok", "a": "ok"})
	if err != nil {
		t.Fatal(err)
	}
	x, y := f().(*knob), f().(*knob)
	if x == y {
		t.Fatal("Factory returned the same instance twice")
	}
	if *x != (knob{"ok", "ok"}) || *y != (knob{"ok", "ok"}) {
		t.Fatalf("instances configured as %+v and %+v", *x, *y)
	}
}

type shade int

func (s shade) String() string { return [...]string{"light", "dark"}[s] }

// widget declares one option of every kind.
type widget struct {
	n       int
	seed    int64
	on      bool
	x, y, m float64
	colour  shade
}

func (w *widget) Name() string { return "Widget" }

func (w *widget) SetOption(name, value string) error { return testReg.Set(w, name, value) }

func (w *widget) Options() []Option {
	return []Option{
		Int("n", "count", &w.n, 1).Require(),
		Seed("seed", "seed", &w.seed),
		Bool("on", "switch", &w.on),
		Float("x", "open-closed", &w.x, Above(0).AtMost(0.5)),
		Float("y", "closed below", &w.y, AtLeast(0)),
		Float("m", "closed-open", &w.m, AtLeast(0).Below(1)),
		Enum("colour", "enum", &w.colour, shade(0), shade(1)),
	}
}

// TestOptionKinds: each kind's default spelling, the values it accepts and
// the error text of the values it rejects.
func TestOptionKinds(t *testing.T) {
	r := testReg
	opts, err := r.Options("Widget")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, o := range opts {
		got = append(got, fmt.Sprintf("%s=%s/%t", o.Name, o.Default, o.Required))
	}
	if s := strings.Join(got, " "); s != "n=3/true seed=-7/false on=false/false x=0.25/false y=1e-08/false m=0/false colour=dark/false" {
		t.Fatalf("descriptors %s", s)
	}
	const must = "test: Widget %s must be %s, got %q"
	for _, tc := range []struct{ name, value, want string }{
		{"n", "1", ""},
		{"n", "0", "an integer >= 1"},
		{"n", "1.0", "an integer >= 1"},
		{"seed", "-9223372036854775808", ""},
		{"seed", "1e3", "an integer"},
		{"on", "T", ""},
		{"on", "yes", "boolean"},
		{"x", "0.5", ""},
		{"x", "0", "a finite number in (0, 0.5]"},
		{"x", "0.5000001", "a finite number in (0, 0.5]"},
		{"y", "0", ""},
		{"y", "1e308", ""},
		{"y", "-1e-300", "a finite number >= 0"},
		{"y", "+Inf", "a finite number >= 0"},
		{"y", "1e999", "a finite number >= 0"},
		{"m", "0", ""},
		{"m", "1", "a finite number in [0, 1)"},
		{"m", "NaN", "a finite number in [0, 1)"},
		{"colour", "light", ""},
		{"colour", "Light", "one of light|dark"},
	} {
		err := r.Set(&widget{}, tc.name, tc.value)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s=%s rejected: %v", tc.name, tc.value, err)
		case tc.want != "" && (err == nil || err.Error() != fmt.Sprintf(must, tc.name, tc.want, tc.value)):
			t.Errorf("%s=%s: error %v, want %q", tc.name, tc.value, err, fmt.Sprintf(must, tc.name, tc.want, tc.value))
		}
	}
	w := &widget{}
	if err := r.Set(w, "colour", "dark"); err != nil || w.colour != 1 {
		t.Fatalf("colour=dark: %v, field %v", err, w.colour)
	}
	if err := r.Set(w, "nope", "1"); err == nil || err.Error() != `test: Widget has no option "nope"` {
		t.Fatalf("unknown option: %v", err)
	}
}
