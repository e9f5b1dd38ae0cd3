package classify

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// treeModel is the trained state J48 and RandomTree share: the tree laid
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

// flatNode is one node of a treeModel. A split (attr >= 0) has the kids
// nodes from first on as children; label is the branch label leading to
// the node from its parent.
type flatNode struct {
	attr, first, kids, class, name, label int32
	numeric                               bool
	threshold                             float64
}

// treeHolder is implemented by the classifiers that embed a treeModel.
type treeHolder interface{ tree() *treeModel }

func (t *treeModel) tree() *treeModel { return t }

// flatten replaces the model's tree with root laid out breadth first, and
// its width with the one root needs.
func (t *treeModel) flatten(root *TreeNode) {
	order := []*TreeNode{root}
	for i := 0; i < len(order); i++ {
		order = append(order, order[i].Children...)
	}
	t.nodes, t.dists, t.strs = make([]flatNode, len(order)), make([]float64, 0, len(order)*(len(root.Dist)+1)), nil
	next := int32(1)
	t.width = t.classIndex + 1
	for i, n := range order {
		nd := &t.nodes[i]
		nd.attr, nd.class = int32(n.Attr), int32(n.ClassIdx)
		if n.Attr >= 0 {
			t.width = max(t.width, n.Attr+1)
			nd.numeric, nd.threshold, nd.name = n.Numeric, n.Threshold, int32(len(t.strs))
			nd.first, nd.kids = next, int32(len(n.Children))
			t.strs = append(t.strs, n.AttrName)
			for _, l := range n.Labels {
				t.nodes[next].label = int32(len(t.strs))
				t.strs = append(t.strs, l)
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
		n.AttrName, n.Numeric, n.Threshold = t.strs[nd.name], nd.numeric, nd.threshold
		for c := nd.first; c < nd.first+nd.kids; c++ {
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
	k := t.classAttr.NumValues() + 1
	floats := false
	for i, v := range t.dists {
		floats = floats || (i%k != 0 && !isCount(v))
	}
	w.Bool(floats)
	w.Uvarint(uint64(len(t.nodes)))
	for _, nd := range t.nodes {
		w.Uvarint(uint64(nd.attr + 1))
		if nd.attr >= 0 {
			w.Bool(nd.numeric)
			w.Sym(t.strs[nd.name])
			if nd.numeric {
				w.F64(nd.threshold)
			}
			w.Uvarint(uint64(nd.kids))
			for _, c := range t.nodes[nd.first : nd.first+nd.kids] {
				w.Sym(t.strs[c.label])
			}
		}
		w.Uvarint(uint64(nd.class))
	}
	for i, v := range t.dists {
		switch {
		case i%k == 0:
		case floats:
			w.F64(v)
		default:
			w.Uvarint(uint64(v))
		}
	}
}

// decode reads what encode writes into two slabs sized from the node
// count, keeping the reader's string table, and validates every node: a
// split's attribute lies inside the tree width, a numeric split has two
// children, a node claims only later nodes, every node but the root is
// claimed once, and the majority class is one of the classes.
func (t *treeModel) decode(r *binfmt.Reader) {
	k := t.classAttr.NumValues()
	floats := r.Bool()
	n := r.Count(2 + k)
	if n == 0 || r.Err() != nil {
		r.Failf("empty tree")
		return
	}
	nodes, dists, syms := make([]flatNode, n), make([]float64, n*(k+1)), r.Syms()
	next := int32(1) // the first node no split has claimed
	for i := range nodes {
		nd := &nodes[i]
		if int32(i) >= next {
			r.Failf("tree node %d is unreachable", i)
			return
		}
		if nd.attr = int32(r.Int(t.width+1)) - 1; nd.attr >= 0 {
			nd.numeric = r.Bool()
			nd.name = int32(r.Int(len(syms)))
			if nd.numeric {
				nd.threshold = r.F64()
			}
			nd.first, nd.kids = next, int32(r.Int(n-int(next)+1))
			if nd.kids == 0 || (nd.numeric && nd.kids != 2) {
				r.Failf("tree node %d splits into %d children", i, nd.kids)
				return
			}
			for ; next < nd.first+nd.kids; next++ {
				nodes[next].label = int32(r.Int(len(syms)))
			}
		}
		if nd.class = int32(r.Int(k)); r.Err() != nil {
			return
		}
	}
	if int(next) != n {
		r.Failf("tree claims %d of its %d nodes", next, n)
		return
	}
	for i := 0; i < len(dists); i += k + 1 {
		if d := dists[i+1 : i+1+k]; floats {
			r.ReadF64s(d)
		} else {
			r.ReadCounts(d)
		}
		dists[i] = sum(dists[i+1 : i+1+k])
	}
	t.nodes, t.dists, t.strs = nodes, dists, syms
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
			for c := nd.first; c < nd.first+nd.kids; c++ {
				totalW += t.dists[c*k]
			}
			if totalW <= 0 {
				i = nd.first
				continue
			}
			for c := nd.first; c < nd.first+nd.kids; c++ {
				if cw := t.dists[c*k]; cw > 0 {
					if err := t.descend(c, row, w*cw/totalW, acc); err != nil {
						return err
					}
				}
			}
			return nil
		case nd.numeric:
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
