package algo

import (
	"fmt"
	"strings"
	"testing"
)

// knob is a Parameterized test algorithm: options a and b take "ok", and
// every other name or value is rejected with an error naming it.
type knob struct{ set []string }

func (k *knob) Name() string { return "Knob" }

func (k *knob) Options() []Option {
	return []Option{{Name: "a", Default: "ok"}, {Name: "b", Default: "ok"}}
}

func (k *knob) SetOption(name, value string) error {
	if (name != "a" && name != "b") || value != "ok" {
		return fmt.Errorf("test: bad %s=%s", name, value)
	}
	k.set = append(k.set, name)
	return nil
}

// plain takes no options.
type plain struct{}

func (plain) Name() string { return "Plain" }

func testRegistry() *Registry[Named] {
	r := NewRegistry[Named]("test", "widget")
	r.Register("Knob", func() Named { return &knob{} })
	r.Register("Plain", func() Named { return plain{} })
	return r
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
		if err == nil || err.Error() != "test: bad b=x" {
			t.Fatalf("Build = %v, want the b error", err)
		}
		if set := m.(*knob).set; len(set) != 1 || set[0] != "a" {
			t.Fatalf("applied %v before failing, want [a]", set)
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
	if strings.Join(x.set, ",") != "a,b" || strings.Join(y.set, ",") != "a,b" {
		t.Fatalf("instances configured as %v and %v", x.set, y.set)
	}
}
