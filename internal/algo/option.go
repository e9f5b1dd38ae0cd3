package algo

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Option declares one run-time parameter of an algorithm, bound to the
// field it sets, and is the unit of the getOptions reply. Build one with
// Int, Seed, Bool, Float or Enum: its Default is the field's value when
// Options was called, which on a freshly registered instance is the
// registered default, and Registry.Set parses, range-checks and stores
// through it.
type Option struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Default     string `json:"default"`
	Required    bool   `json:"required"`

	want string            // the accepted values, as errors spell them
	set  func(string) bool // parses, checks and stores a value; false if rejected
}

// Require marks the option as one a caller is expected to set.
func (o Option) Require() Option {
	o.Required = true
	return o
}

// bind declares an option over field f; parse reports whether a value is
// well formed and in range.
func bind[V any](name, desc string, f *V, want string, parse func(string) (V, bool), format func(V) string) Option {
	return Option{Name: name, Description: desc, Default: format(*f), want: want,
		set: func(s string) bool {
			v, ok := parse(s)
			if ok {
				*f = v
			}
			return ok
		},
	}
}

// Int declares an integer option of at least min.
func Int(name, desc string, f *int, min int) Option {
	return bind(name, desc, f, fmt.Sprintf("an integer >= %d", min), func(s string) (int, bool) {
		n, err := strconv.Atoi(s)
		return n, err == nil && n >= min
	}, strconv.Itoa)
}

// Seed declares a 64-bit RNG seed option; any integer is a seed.
func Seed(name, desc string, f *int64) Option {
	return bind(name, desc, f, "an integer", func(s string) (int64, bool) {
		n, err := strconv.ParseInt(s, 10, 64)
		return n, err == nil
	}, func(n int64) string { return strconv.FormatInt(n, 10) })
}

// Bool declares a boolean option, in strconv.ParseBool's spellings.
func Bool(name, desc string, f *bool) Option {
	return bind(name, desc, f, "boolean", func(s string) (bool, bool) {
		b, err := strconv.ParseBool(s)
		return b, err == nil
	}, strconv.FormatBool)
}

// Float declares a float option within iv. NaN and ±Inf are rejected
// whatever the bounds.
func Float(name, desc string, f *float64, iv Interval) Option {
	return bind(name, desc, f, "a finite number "+iv.String(), func(s string) (float64, bool) {
		x, err := strconv.ParseFloat(s, 64)
		return x, err == nil && iv.contains(x)
	}, formatFloat)
}

// Enum declares an option taking one of values, each spelt as fmt.Sprint
// prints it.
func Enum[V any](name, desc string, f *V, values ...V) Option {
	spell := func(v V) string { return fmt.Sprint(v) }
	names := make([]string, len(values))
	for i, v := range values {
		names[i] = spell(v)
	}
	return bind(name, desc, f, "one of "+strings.Join(names, "|"), func(s string) (V, bool) {
		if i := slices.Index(names, s); i >= 0 {
			return values[i], true
		}
		var zero V
		return zero, false
	}, spell)
}

// Interval is the range of a Float option: lo to hi, each end included
// unless open. Above and AtLeast start one; Below and AtMost bound it
// above.
type Interval struct {
	lo, hi         float64
	openLo, openHi bool
}

// Above is (lo, +Inf).
func Above(lo float64) Interval { return Interval{lo: lo, hi: math.Inf(1), openLo: true, openHi: true} }

// AtLeast is [lo, +Inf).
func AtLeast(lo float64) Interval { return Interval{lo: lo, hi: math.Inf(1), openHi: true} }

// Below bounds iv above by hi, excluded.
func (iv Interval) Below(hi float64) Interval { iv.hi, iv.openHi = hi, true; return iv }

// AtMost bounds iv above by hi, included.
func (iv Interval) AtMost(hi float64) Interval { iv.hi, iv.openHi = hi, false; return iv }

func (iv Interval) contains(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	return (x > iv.lo || !iv.openLo && x == iv.lo) && (x < iv.hi || !iv.openHi && x == iv.hi)
}

// String spells iv as errors show it: "> 0", ">= 1" or "in (0, 0.5]".
func (iv Interval) String() string {
	lo := formatFloat(iv.lo)
	if math.IsInf(iv.hi, 1) {
		if iv.openLo {
			return "> " + lo
		}
		return ">= " + lo
	}
	l, r := "[", "]"
	if iv.openLo {
		l = "("
	}
	if iv.openHi {
		r = ")"
	}
	return "in " + l + lo + ", " + formatFloat(iv.hi) + r
}

func formatFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
