package classify

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// treeModel is the trained state J48 and randomTree share: the tree laid
// out breadth first, the order DMM1 stores it in, so a split's children
// are consecutive nodes. Training grows a *TreeNode tree and flattens it
// once; a snapshot decodes straight into the slabs; Tree builds a
// *TreeNode view back for display only.
type treeModel struct {
	nodes []flatNode // pointer-free: the garbage collector never scans it
	// dists holds, per node, the sum of its class weights and then the
	// weights themselves: the totals scoring divides by, summed once.
	dists []float64
	// strs holds the split names and branch labels nodes index into: the
	// snapshot's string table for a decoded tree.
	strs       []string
	classAttr  *dataset.Attribute
	classIndex int
	// width is the row width scoring needs: one past the highest column
	// the tree splits on or the class occupies.
	width int
}

// flatNode is one node of a treeModel. A split (attr >= 0) has kids children
// from node first on, or, numeric with kids 0, two: values <= threshold
// first. label is the branch label leading to the node from its parent.
type flatNode struct {
	attr, first, kids, class, name, label int32
	threshold                             float64
}

// numeric reports whether split nd is a numeric one.
func (nd *flatNode) numeric() bool { return nd.kids == 0 }

// arity returns the child count of split nd.
func (nd *flatNode) arity() int32 {
	if nd.numeric() {
		return 2
	}
	return nd.kids
}

// treeHolder is implemented by the classifiers that embed a treeModel.
type treeHolder interface{ tree() *treeModel }

func (t *treeModel) tree() *treeModel { return t }

// flatten replaces the model's tree with root laid out breadth first, and
// its width with the one root needs.
func (t *treeModel) flatten(root *TreeNode) {
	order := []*TreeNode{root}
	t.width = t.classIndex + 1
	for i := 0; i < len(order); i++ {
		order = append(order, order[i].Children...)
		t.width = max(t.width, order[i].Attr+1)
	}
	t.nodes, t.dists, t.strs = make([]flatNode, len(order)), make([]float64, 0, len(order)*(len(root.Dist)+1)), nil
	// A split reuses the name and labels its attribute's last stored run
	// holds if they are equal, as a nominal split's are: named[a] is 1 +
	// where that run starts.
	named := make([]int32, t.width)
	next := int32(1)
	for i, n := range order {
		nd := &t.nodes[i]
		nd.attr, nd.class = int32(n.Attr), int32(n.ClassIdx)
		if n.Attr >= 0 {
			nd.threshold, nd.first, nd.kids = n.Threshold, next, int32(len(n.Children))
			if n.Numeric {
				nd.kids = 0
			}
			if at := int(named[n.Attr]) - 1; at >= 0 && t.strs[at] == n.AttrName &&
				slices.Equal(t.strs[at+1:min(at+1+len(n.Labels), len(t.strs))], n.Labels) {
				nd.name = int32(at)
			} else {
				nd.name = int32(len(t.strs))
				t.strs = append(append(t.strs, n.AttrName), n.Labels...)
				named[n.Attr] = nd.name + 1
			}
			for j := range n.Labels {
				t.nodes[next].label = nd.name + 1 + int32(j)
				next++
			}
		}
		t.dists = append(append(t.dists, sum(n.Dist)), n.Dist...)
	}
}

// view builds node i and its subtree afresh as *TreeNodes sharing nothing
// with the model, so a caller may change them freely (nil before training).
func (t *treeModel) view(i int32) *TreeNode {
	if t.nodes == nil {
		return nil
	}
	nd, k := t.nodes[i], int32(t.classAttr.NumValues())+1
	n := &TreeNode{Attr: int(nd.attr), ClassIdx: int(nd.class), ClassName: t.classAttr.Value(int(nd.class)),
		Dist: slices.Clone(t.dists[i*k+1 : (i+1)*k])}
	if nd.attr >= 0 {
		n.AttrName, n.Numeric, n.Threshold = t.strs[nd.name], nd.numeric(), nd.threshold
		for c := nd.first; c < nd.first+nd.arity(); c++ {
			n.Children, n.Labels = append(n.Children, t.view(c)), append(n.Labels, t.strs[t.nodes[c].label])
		}
	}
	return n
}

func (t *treeModel) snapshot(c binfmt.Codec) {
	if !c.Has(t.nodes != nil) {
		return
	}
	codeAttr(c, &t.classAttr)
	c.Int(&t.classIndex)
	c.Int(&t.width)
	if c.Reading() {
		t.decode(c.R)
	} else {
		t.encode(c.W)
	}
}

func isCount(v float64) bool { return v >= 0 && v < 1<<53 && v == math.Trunc(v) && !math.Signbit(v) }

// encode writes the nodes in order. Per node: attr+1 (0 for a leaf); for a
// split, whether it is numeric, the attribute name, a numeric split's
// threshold, the child count and a label per child; then the majority
// class index (its name is the class label). The class weights follow as
// one block: uvarints when every weight is a count, as with unit weights
// and bootstrap samples, float64 bits otherwise.
func (t *treeModel) encode(w *binfmt.Writer) {
	k := t.classAttr.NumValues()
	floats := false
	for i := 0; i < len(t.dists) && !floats; i += k + 1 {
		for _, v := range t.dists[i+1 : i+1+k] {
			floats = floats || !isCount(v)
		}
	}
	w.Bool(floats)
	w.Uvarint(uint64(len(t.nodes)))
	w.SymsOf(t.strs)
	b := w.Buf // appended to in place of w's methods, for speed
	for _, nd := range t.nodes {
		b = binary.AppendUvarint(b, uint64(nd.attr+1))
		if nd.attr >= 0 {
			if !nd.numeric() {
				b = binary.AppendUvarint(append(b, 0), w.SymAt(nd.name))
			} else {
				b = binary.AppendUvarint(append(b, 1), w.SymAt(nd.name))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nd.threshold))
			}
			b = binary.AppendUvarint(b, uint64(nd.arity()))
			for _, c := range t.nodes[nd.first : nd.first+nd.arity()] {
				b = binary.AppendUvarint(b, w.SymAt(c.label))
			}
		}
		b = binary.AppendUvarint(b, uint64(nd.class))
	}
	for i := 0; i < len(t.dists); i += k + 1 {
		for _, v := range t.dists[i+1 : i+1+k] {
			if floats {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			} else {
				b = binary.AppendUvarint(b, uint64(v))
			}
		}
	}
	w.Buf = b
}

// decode reads what encode writes, in one pass over the reader's unread
// bytes, into two slabs sized from the node count, keeping the reader's
// string table. It checks every node: a split's attribute lies inside the
// tree width, a numeric split has two children, a node claims only later
// nodes, every node but the root is claimed once, and the majority class
// is one of the classes.
func (t *treeModel) decode(r *binfmt.Reader) {
	k := t.classAttr.NumValues()
	floats := r.Bool()
	n := r.Count(2 + k)
	if n == 0 || r.Err() != nil {
		r.Failf("empty tree")
		return
	}
	nodes, dists, syms := make([]flatNode, n), make([]float64, n*(k+1)), r.Syms()
	b := r.Rest()
	p, err := readNodes(b, nodes, t.width, len(syms), k)
	if err == nil && floats && len(b)-p < 8*k*n {
		err = fmt.Errorf("truncated class weights")
	}
	for i := 0; i < len(dists) && err == nil; i += k + 1 {
		var total float64 // summed in order, as sum does
		for j := i + 1; j <= i+k; j++ {
			if floats {
				dists[j], p = math.Float64frombits(binary.LittleEndian.Uint64(b[p:])), p+8
			} else {
				var v uint64
				v, p = uvarintAt(b, p)
				dists[j] = float64(v)
			}
			total += dists[j]
		}
		dists[i] = total
	}
	if p > len(b) {
		err = fmt.Errorf("truncated or overlong uvarint in a tree")
	}
	if err != nil {
		r.Failf("%v", err)
		return
	}
	r.Take(p)
	t.nodes, t.dists, t.strs = nodes, dists, syms
}

// readNodes parses the node list b opens with into nodes, each field
// checked against its bound as it is read, and returns the offset past it
// (past len(b) after a bad uvarint).
func readNodes(b []byte, nodes []flatNode, width, nsyms, k int) (int, error) {
	n, next, p := len(nodes), int32(1), 0 // next: the first node no split has claimed
	var v uint64
	for i := range nodes {
		nd := &nodes[i]
		if int32(i) >= next {
			return p, fmt.Errorf("tree node %d is unreachable", i)
		}
		if v, p = uvarintAt(b, p); v > uint64(width) {
			return p, fmt.Errorf("tree node %d: attribute+1 %d out of range [0,%d]", i, v, width)
		}
		if nd.attr = int32(v) - 1; nd.attr >= 0 {
			if p >= len(b) || b[p] > 1 {
				return p, fmt.Errorf("tree node %d has no split kind", i)
			}
			numeric := b[p] == 1
			if v, p = uvarintAt(b, p+1); v >= uint64(nsyms) {
				return p, fmt.Errorf("tree node %d: name %d out of range [0,%d)", i, v, nsyms)
			}
			nd.name = int32(v)
			if numeric {
				if len(b)-p < 8 {
					return p, fmt.Errorf("tree node %d: truncated threshold", i)
				}
				nd.threshold, p = math.Float64frombits(binary.LittleEndian.Uint64(b[p:])), p+8
			}
			if v, p = uvarintAt(b, p); v > uint64(n-int(next)) {
				return p, fmt.Errorf("tree node %d: %d children, %d nodes left", i, v, n-int(next))
			}
			if v == 0 || (numeric && v != 2) {
				return p, fmt.Errorf("tree node %d splits into %d children", i, v)
			}
			if nd.first, nd.kids = next, int32(v); numeric {
				nd.kids = 0
			}
			for end := next + int32(v); next < end; next++ {
				if v, p = uvarintAt(b, p); v >= uint64(nsyms) {
					return p, fmt.Errorf("tree node %d: label %d out of range [0,%d)", next, v, nsyms)
				}
				nodes[next].label = int32(v)
			}
		}
		if v, p = uvarintAt(b, p); v >= uint64(k) {
			return p, fmt.Errorf("tree node %d: class %d out of range [0,%d)", i, v, k)
		}
		nd.class = int32(v)
	}
	if int(next) != n {
		return p, fmt.Errorf("tree claims %d of its %d nodes", next, n)
	}
	return p, nil
}

// uvarintAt reads the uvarint at b[p:] as binary.Uvarint does, but inlined,
// and returns it with the offset past it. A bad one reads as MaxUint64,
// which no bound admits, at offset len(b)+1, where later reads fail too.
func uvarintAt(b []byte, p int) (v uint64, next int) {
	if p < len(b) && b[p] < 0x80 {
		return uint64(b[p]), p + 1
	}
	for s := 0; p < len(b) && s < 64; s += 7 {
		c := b[p]
		p++
		if v |= uint64(c&0x7f) << s; c < 0x80 {
			if s == 63 && c > 1 {
				break
			}
			return v, p
		}
	}
	return math.MaxUint64, len(b) + 1
}

// distribution scores in for the tree learner named name, into dst when
// it has room for the classes.
func (t *treeModel) distribution(name string, in *dataset.Instance, dst []float64) ([]float64, error) {
	if t.nodes == nil {
		return nil, fmt.Errorf("classify: %s is untrained", name)
	}
	if err := checkWidth(name, in, t.width); err != nil {
		return nil, err
	}
	dst = slices.Grow(dst[:0], t.classAttr.NumValues())[:t.classAttr.NumValues()]
	clear(dst)
	if err := t.descend(0, in.Values, 1, dst); err != nil {
		return nil, err
	}
	return normalize(dst), nil
}

// descend adds the weight w reaching node i into acc, following the row's
// split values. A missing value sends w down every branch in proportion
// to the branch's training mass. A nominal value truncates to a branch and
// one past the last branch takes the last; a negative one is an error.
func (t *treeModel) descend(i int32, row []float64, w float64, acc []float64) error {
	k := int32(len(acc)) + 1
	for {
		nd := &t.nodes[i]
		if nd.attr < 0 {
			dist := t.dists[i*k : (i+1)*k]
			if total := dist[0]; total <= 0 {
				acc[nd.class] += w
			} else {
				for c, d := range dist[1:] {
					acc[c] += w * d / total
				}
			}
			return nil
		}
		switch v := row[nd.attr]; {
		case dataset.IsMissing(v):
			var totalW float64
			end := nd.first + nd.arity()
			for c := nd.first; c < end; c++ {
				totalW += t.dists[c*k]
			}
			if totalW <= 0 {
				i = nd.first
				continue
			}
			for c := nd.first; c < end; c++ {
				if cw := t.dists[c*k]; cw > 0 {
					if err := t.descend(c, row, w*cw/totalW, acc); err != nil {
						return err
					}
				}
			}
			return nil
		case nd.numeric():
			if i = nd.first; v > nd.threshold {
				i++
			}
		case v < 0:
			return errNegativeNominal(int(nd.attr), v)
		case v >= float64(nd.kids):
			i = nd.first + nd.kids - 1
		default:
			i = nd.first + int32(v)
		}
	}
}
