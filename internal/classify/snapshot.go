package classify

import (
	"math"

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
	for i, m := range *ms {
		var tag string
		if !c.Reading() {
			tag = m.Name()
		}
		if c.Sym(&tag); c.Reading() {
			m, _ = New(tag)
			(*ms)[i] = m
		}
		s, ok := m.(snapshotter)
		switch m.(type) {
		case *Bagging, *RandomForest, *AdaBoostM1:
			ok = false
		}
		if !ok {
			c.Failf("classify: %q cannot be an ensemble member", tag)
			return
		}
		s.Snapshot(c)
	}
}

// codeAttr codes an attribute: name, kind and declared values. A decoded
// attribute is never nil, even after a failure.
func codeAttr(c binfmt.Codec, p **dataset.Attribute) {
	name, kind, vals := "", 0, []string(nil)
	if !c.Reading() {
		name, kind, vals = (*p).Name, int((*p).Kind), (*p).Values()
	}
	c.Sym(&name)
	c.Int(&kind)
	binfmt.List(c, &vals, 1)
	for i := range vals {
		c.Sym(&vals[i])
	}
	if !c.Reading() {
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

// treeModel is the trained state J48 and RandomTree share.
type treeModel struct {
	root       *TreeNode
	classAttr  *dataset.Attribute
	classIndex int
	width      int // see treeWidth
}

func (t *treeModel) snapshot(c binfmt.Codec) {
	if !c.Has(t.root != nil) {
		return
	}
	codeAttr(c, &t.classAttr)
	c.Int(&t.classIndex)
	c.Int(&t.width)
	if c.Reading() {
		t.root = readTree(c.R, t.width, t.classAttr.Values())
	} else {
		appendTree(c.W, t.root, t.classAttr.Values())
	}
}

func isCount(v float64) bool { return v >= 0 && v < 1<<53 && v == math.Trunc(v) && !math.Signbit(v) }

// appendTree writes the tree breadth first, so a node's children are the
// next nodes not yet claimed and decoding needs neither pointers nor
// recursion. Per node: attr+1 (0 for a leaf); for a split, whether it is
// numeric, the attribute name, a numeric split's threshold and a label per
// child; then the majority class index (its name is the class label). The
// dists follow as one block: uvarints when every entry is a count, as with
// unit weights and bootstrap samples, float64 bits otherwise.
func appendTree(w *binfmt.Writer, root *TreeNode, classes []string) {
	k := len(classes)
	order := append(make([]*TreeNode, 0, countNodes(root)), root)
	floats := false
	for i := 0; i < len(order); i++ {
		n := order[i]
		if len(n.Dist) != k || (n.Attr < 0) != (len(n.Children) == 0) ||
			len(n.Labels) != len(n.Children) || (n.Numeric && n.Attr >= 0 && len(n.Children) != 2) ||
			n.ClassIdx < 0 || n.ClassIdx >= k || n.ClassName != classes[n.ClassIdx] {
			w.Failf("classify: malformed tree node %d (attr %d, %d children, %d labels, class %d %q of %d)",
				i, n.Attr, len(n.Children), len(n.Labels), n.ClassIdx, n.ClassName, k)
			return
		}
		for _, v := range n.Dist {
			floats = floats || !isCount(v)
		}
		order = append(order, n.Children...)
	}
	w.Bool(floats)
	w.Uvarint(uint64(len(order)))
	for _, n := range order {
		w.Uvarint(uint64(n.Attr + 1))
		if n.Attr >= 0 {
			w.Bool(n.Numeric)
			w.Sym(n.AttrName)
			if n.Numeric {
				w.F64(n.Threshold)
			}
			w.Uvarint(uint64(len(n.Children)))
			for _, l := range n.Labels {
				w.Sym(l)
			}
		}
		w.Uvarint(uint64(n.ClassIdx))
	}
	for _, n := range order {
		for _, v := range n.Dist {
			if floats {
				w.F64(v)
			} else {
				w.Uvarint(uint64(v))
			}
		}
	}
}

// readTree fills one node, child, label and dist slab each, sized from the
// node count, and validates every node: a split's attribute lies inside
// the tree width, a numeric split has two children, a node claims only
// later nodes, every node but the root is claimed once, and the majority
// class is one of the classes.
func readTree(r *binfmt.Reader, width int, classes []string) *TreeNode {
	k := len(classes)
	floats := r.Bool()
	n := r.Count(2 + k)
	if n == 0 || r.Err() != nil {
		r.Failf("empty tree")
		return nil
	}
	nodes := make([]TreeNode, n)
	kids := make([]*TreeNode, n-1)
	labels := make([]string, n-1)
	dists := make([]float64, n*k)
	next := 1 // the first node no split has claimed
	for i := range nodes {
		nd := &nodes[i]
		if i >= next {
			r.Failf("tree node %d is unreachable", i)
			return nil
		}
		nd.Attr = r.Int(width+1) - 1
		if nd.Attr >= 0 {
			nd.Numeric = r.Bool()
			nd.AttrName = r.Sym()
			if nd.Numeric {
				nd.Threshold = r.F64()
			}
			c := r.Int(n - next + 1)
			if c == 0 || (nd.Numeric && c != 2) {
				r.Failf("tree node %d splits into %d children", i, c)
				return nil
			}
			end := next - 1 + c
			nd.Children, nd.Labels = kids[next-1:end:end], labels[next-1:end:end]
			for j := range nd.Children {
				nd.Children[j] = &nodes[next+j]
				nd.Labels[j] = r.Sym()
			}
			next += c
		}
		if nd.ClassIdx = r.Int(k); r.Err() != nil {
			return nil
		}
		nd.ClassName = classes[nd.ClassIdx]
		nd.Dist = dists[i*k : (i+1)*k : (i+1)*k]
	}
	if next != n {
		r.Failf("tree claims %d of its %d nodes", next, n)
		return nil
	}
	if floats {
		r.ReadF64s(dists)
	} else {
		r.ReadCounts(dists)
	}
	return &nodes[0]
}
