package classify

import (
	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// Every registered classifier codes its trained state with one Snapshot
// method next to the algorithm (see binfmt.Codec and model.Marshal); this
// file holds what they share. Training-only state (RNGs, momentum scratch)
// is not written: a restored model predicts, and retrains from its registry
// defaults and options.

type snapshotter interface{ Snapshot(c binfmt.Codec) }

// codeMembers codes ensemble members as nested frames: a registry name,
// then that model's Snapshot. A member is never an ensemble, which bounds
// the nesting at one level.
func codeMembers(c binfmt.Codec, ms *[]Classifier) {
	binfmt.List(c, ms, 2)
	var class *dataset.Attribute // the last tree member's, for the next to share
	for i, m := range *ms {
		var tag string
		if !c.Reading() {
			tag = m.Name()
		}
		if c.Sym(&tag); c.Reading() {
			m, _ = New(tag)
			(*ms)[i] = m
			if t, ok := m.(treeHolder); ok {
				t.tree().classAttr = class
			}
		}
		s, ok := m.(snapshotter)
		switch m.(type) {
		case *Bagging, *RandomForest, *adaBoostM1:
			ok = false
		}
		if !ok {
			c.Failf("classify: %q cannot be an ensemble member", tag)
			return
		}
		if s.Snapshot(c); c.Reading() {
			if t, ok := m.(treeHolder); ok {
				class = t.tree().classAttr
			}
		}
	}
}

// codeAttr codes an attribute: name, kind and declared values. A decoded
// attribute is never nil, even after a failure. Decoding into an attribute
// keeps it when the bytes declare the same one, so ensemble members share
// their class attribute; the values are then compared as they are read,
// and a list is built only from the first that differs.
func codeAttr(c binfmt.Codec, p **dataset.Attribute) {
	if !c.Reading() {
		name, kind, vals := (*p).Name, int((*p).Kind), (*p).Values()
		c.Sym(&name)
		c.Int(&kind)
		binfmt.List(c, &vals, 1)
		for i := range vals {
			c.Sym(&vals[i])
		}
		return
	}
	var name string
	var kind, n int
	c.Sym(&name)
	c.Int(&kind)
	c.Count(&n, 1)
	old := *p
	same := old != nil && old.Name == name && int(old.Kind) == kind && old.NumValues() == n
	var vals []string
	if !same && n > 0 {
		vals = make([]string, 0, n)
	}
	for i := 0; i < n; i++ {
		var v string
		if c.Sym(&v); same && v == old.Value(i) {
			continue
		}
		if same {
			same = false
			vals = make([]string, i, n)
			for j := range vals {
				vals[j] = old.Value(j)
			}
		}
		vals = append(vals, v)
	}
	if same {
		return
	}
	// Every kind keeps its declared values in order, as a nominal
	// attribute does.
	if *p = dataset.NewNominalAttribute(name, vals...); kind > int(dataset.String) ||
		(kind == int(dataset.Numeric) && len(vals) > 0) {
		c.Failf("attribute %q of kind %d cannot declare %d values", name, kind, len(vals))
	}
	(*p).Kind = dataset.Kind(kind)
}

// codeSchema codes a schema without its instances.
func codeSchema(c binfmt.Codec, p **dataset.Dataset) {
	d := *p
	if c.Reading() {
		d = dataset.New("")
		*p = d
	}
	c.Sym(&d.Relation)
	c.Signed(&d.ClassIndex)
	binfmt.List(c, &d.Attrs, 3)
	for i := range d.Attrs {
		codeAttr(c, &d.Attrs[i])
	}
	if d.ClassIndex < -1 || d.ClassIndex >= len(d.Attrs) {
		c.Failf("class index %d out of range for %d attributes", d.ClassIndex, len(d.Attrs))
	}
}
