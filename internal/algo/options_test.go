package algo_test

import (
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/regress"
)

// family is one registry behind the general services: a constructor and
// the names of its algorithms that take options.
type family struct {
	names []string
	new   func(string) algo.Parameterized
}

func newFamily(all []string, build func(string) (any, error)) family {
	f := family{new: func(n string) algo.Parameterized {
		m, err := build(n)
		if err != nil {
			panic(err)
		}
		p, _ := m.(algo.Parameterized)
		return p
	}}
	for _, n := range all {
		if f.new(n) != nil {
			f.names = append(f.names, n)
		}
	}
	return f
}

var families = []family{
	newFamily(classify.Names(), func(n string) (any, error) { return classify.New(n) }),
	newFamily(cluster.Names(), func(n string) (any, error) { return cluster.New(n) }),
	newFamily(regress.Registry.Names(), func(n string) (any, error) { return regress.Registry.New(n) }),
}

// TestOptionsRejectNonFinite: no option of any registered algorithm takes
// NaN or an infinity, so no remote caller can configure a model that
// scores NaN.
func TestOptionsRejectNonFinite(t *testing.T) {
	for _, fam := range families {
		for _, name := range fam.names {
			for _, o := range fam.new(name).Options() {
				for _, v := range []string{"NaN", "nan", "+Inf", "-Inf", "Inf", "infinity", "1e999", "-1e999"} {
					if err := fam.new(name).SetOption(o.Name, v); err == nil {
						t.Errorf("%s accepted %s=%s", name, o.Name, v)
					}
				}
			}
		}
	}
}

// FuzzSetOption sets one option of one registered algorithm to an
// arbitrary value. It must never panic, and a rejection must name the
// algorithm by its registry name and the option. After an accepted value,
// Options reports the value as stored (its Default), and SetOption must
// take that spelling back verbatim without changing it.
func FuzzSetOption(f *testing.F) {
	for _, seed := range []struct {
		reg, alg, opt uint8
		value         string
	}{
		{0, 0, 0, "5"}, {0, 3, 0, "0.1"}, {0, 4, 1, "NaN"}, {1, 0, 0, "1e-300"},
		{1, 3, 1, "single"}, {2, 1, 0, "-0"}, {0, 2, 9, "true"}, {1, 1, 0, "0x1p-2"},
	} {
		f.Add(seed.reg, seed.alg, seed.opt, seed.value)
	}
	f.Fuzz(func(t *testing.T, reg, alg, opt uint8, value string) {
		fam := families[int(reg)%len(families)]
		name := fam.names[int(alg)%len(fam.names)]
		p := fam.new(name)
		opts := p.Options()
		option := "noSuchOption"
		if i := int(opt) % (len(opts) + 1); i < len(opts) {
			option = opts[i].Name
		}
		if err := p.SetOption(option, value); err != nil {
			if msg := err.Error(); !strings.Contains(msg, " "+name+" ") || !strings.Contains(msg, option) {
				t.Fatalf("%s %s=%q: error %q does not name both", name, option, value, msg)
			}
			return
		}
		stored := current(p, option)
		if err := p.SetOption(option, stored); err != nil {
			t.Fatalf("%s %s=%q: its own spelling %q is rejected: %v", name, option, value, stored, err)
		}
		if again := current(p, option); again != stored {
			t.Fatalf("%s %s=%q: re-setting %q stores %q", name, option, value, stored, again)
		}
	})
}

// current is the Default p reports for option: its value as stored.
func current(p algo.Parameterized, option string) string {
	for _, o := range p.Options() {
		if o.Name == option {
			return o.Default
		}
	}
	panic("no option " + option)
}
