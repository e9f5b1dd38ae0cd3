// Package dataset provides the core data model of the toolkit: attributes,
// instances and datasets in the style of the ARFF (Attribute Relation File
// Format) data model used throughout the paper. Nominal values are encoded
// as indices into the attribute's value list, numeric values are stored
// directly, and missing values are represented by NaN.
package dataset

import (
	"fmt"
	"math"
	"strings"
)

// Kind enumerates the supported attribute types.
type Kind int

const (
	// Numeric attributes hold real-valued measurements.
	Numeric Kind = iota
	// Nominal attributes hold one of a fixed set of symbolic values.
	Nominal
	// String attributes hold free text; values are interned per attribute.
	String
)

// String returns the ARFF spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Nominal:
		return "nominal"
	case String:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Missing is the in-memory representation of a missing value ("?" in ARFF).
var Missing = math.NaN()

// IsMissing reports whether v encodes a missing value.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Attribute describes a single column of a dataset.
type Attribute struct {
	Name   string
	Kind   Kind
	values []string       // nominal labels or interned strings
	index  map[string]int // label -> index
}

// NewNumericAttribute returns a numeric attribute with the given name.
func NewNumericAttribute(name string) *Attribute {
	return &Attribute{Name: name, Kind: Numeric}
}

// NewNominalAttribute returns a nominal attribute with the given labels.
func NewNominalAttribute(name string, labels ...string) *Attribute {
	a := &Attribute{Name: name, Kind: Nominal, index: make(map[string]int, len(labels)),
		values: make([]string, 0, len(labels))}
	for _, l := range labels {
		a.addValue(l)
	}
	return a
}

// NewStringAttribute returns a string attribute; values are interned on use.
func NewStringAttribute(name string) *Attribute {
	return &Attribute{Name: name, Kind: String, index: make(map[string]int)}
}

func (a *Attribute) addValue(label string) int {
	if a.index == nil {
		a.index = make(map[string]int)
	}
	if i, ok := a.index[label]; ok {
		return i
	}
	a.values = append(a.values, label)
	a.index[label] = len(a.values) - 1
	return len(a.values) - 1
}

// NumValues returns the number of declared labels (nominal/string).
func (a *Attribute) NumValues() int { return len(a.values) }

// Values returns a copy of the declared labels.
func (a *Attribute) Values() []string {
	out := make([]string, len(a.values))
	copy(out, a.values)
	return out
}

// Value returns the label at index i, or "?" if i is out of range.
func (a *Attribute) Value(i int) string {
	if i < 0 || i >= len(a.values) {
		return "?"
	}
	return a.values[i]
}

// IndexOf returns the index of label, or -1 when unknown.
func (a *Attribute) IndexOf(label string) int {
	if a.index == nil {
		return -1
	}
	if i, ok := a.index[label]; ok {
		return i
	}
	return -1
}

// Intern returns the index for label, adding it for String attributes.
// For Nominal attributes an unknown label is an error.
func (a *Attribute) Intern(label string) (int, error) {
	switch a.Kind {
	case Nominal:
		if i := a.IndexOf(label); i >= 0 {
			return i, nil
		}
		return -1, fmt.Errorf("dataset: attribute %q has no value %q (declared: %s)",
			a.Name, label, strings.Join(a.values, ","))
	case String:
		return a.addValue(label), nil
	default:
		return -1, fmt.Errorf("dataset: attribute %q is numeric; cannot intern %q", a.Name, label)
	}
}

// IsNominal reports whether the attribute is nominal.
func (a *Attribute) IsNominal() bool { return a.Kind == Nominal }

// IsNumeric reports whether the attribute is numeric.
func (a *Attribute) IsNumeric() bool { return a.Kind == Numeric }

// IsString reports whether the attribute is a string attribute.
func (a *Attribute) IsString() bool { return a.Kind == String }

// Clone returns a deep copy of the attribute.
func (a *Attribute) Clone() *Attribute {
	c := &Attribute{Name: a.Name, Kind: a.Kind}
	if a.values != nil {
		c.values = append([]string(nil), a.values...)
		c.index = make(map[string]int, len(a.values))
		for i, v := range c.values {
			c.index[v] = i
		}
	}
	return c
}

// SpecString returns the ARFF declaration of the attribute, e.g.
// "@attribute age {young,old}" or "@attribute weight numeric".
func (a *Attribute) SpecString() string {
	switch a.Kind {
	case Nominal:
		return fmt.Sprintf("@attribute %s {%s}", quoteName(a.Name), strings.Join(a.values, ","))
	case String:
		return fmt.Sprintf("@attribute %s string", quoteName(a.Name))
	default:
		return fmt.Sprintf("@attribute %s numeric", quoteName(a.Name))
	}
}

func quoteName(s string) string {
	if strings.ContainsAny(s, " \t,{}'\"%") {
		return "'" + strings.ReplaceAll(s, "'", `\'`) + "'"
	}
	return s
}
