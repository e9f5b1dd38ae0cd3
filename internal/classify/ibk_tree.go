package classify

import (
	"math"

	"repro/internal/dataset"
)

// ibkLeaf bounds the cases of a leaf, ibkSample the rows a split reads.
const ibkLeaf, ibkSample = 32, 8

// ibkTree is a static box tree over an IBk's first len(perm) cases. Node i
// covers rows [start, end) of a permuted copy of the case rows; its box
// (lo, hi and miss from i*m) holds per column the range of their
// non-missing cells and whether any is missing.
type ibkTree struct {
	perm   []int     // perm[p] is the case index of permuted row p
	rows   []float64 // the case rows in permuted order, schema-wide
	nodes  []ibkNode // depth first: an inner node's left child follows it
	lo, hi []float64
	miss   []bool
}

type ibkNode struct{ start, end, right int } // right == 0 for a leaf

var ibkNone = &ibkTree{nodes: make([]ibkNode, 1)} // indexes no case

// index builds the tree over the case base, with leaves of ≤ leaf cases.
func (k *IBk) index(leaf int) {
	m, n := len(k.schema.Attrs), len(k.cls)
	nodes := 2 * max(1, n/max(1, (leaf+1)/2)) // a leaf holds at least (leaf+1)/2 cases
	box := make([]float64, 2*nodes*m)
	t := &ibkTree{perm: make([]int, n), rows: make([]float64, n*m), nodes: make([]ibkNode, 0, nodes),
		lo: box[:nodes*m], hi: box[nodes*m:], miss: make([]bool, nodes*m)}
	for i := range t.perm {
		t.perm[i] = i
	}
	t.build(k, m, 0, n, leaf, make([]neighbour, n))
	k.tree = t
}

// build appends the node for permuted rows [start, end) and its subtree,
// splitting a node of more than leaf cases at the median of its widest
// column. A leaf's box comes from its rows, a parent's from its children.
func (t *ibkTree) build(k *IBk, m, start, end, leaf int, keys []neighbour) {
	node := len(t.nodes)
	t.nodes = append(t.nodes, ibkNode{start: start, end: end})
	lo, hi, miss := t.lo[node*m:(node+1)*m], t.hi[node*m:(node+1)*m], t.miss[node*m:(node+1)*m]
	if end-start <= leaf {
		for p := start; p < end; p++ {
			copy(t.rows[p*m:(p+1)*m], k.cases[t.perm[p]*m:])
		}
		t.fold(k, m, start, end, 1, lo, hi, miss)
		return
	}
	// Any column and order give an exact index; the widest prunes best.
	col, widest := 0, -1.0
	t.fold(k, m, start, end, (end-start+ibkSample-1)/ibkSample, lo, hi, miss)
	for c, a := range k.schema.Attrs {
		if w := (hi[c] - lo[c]) / (k.max[c] - k.min[c]); c != k.schema.ClassIndex && a.IsNumeric() && w > widest {
			col, widest = c, w
		}
	}
	for p := start; p < end; p++ {
		keys[p] = neighbour{k.cases[t.perm[p]*m+col], t.perm[p]}
	}
	mid := start + (end-start)/2
	selectAt(keys[start:end], mid-start)
	for p := start; p < end; p++ {
		t.perm[p] = keys[p].idx
	}
	t.build(k, m, start, mid, leaf, keys)
	right := len(t.nodes)
	t.nodes[node].right = right
	t.build(k, m, mid, end, leaf, keys)
	for c := range lo {
		a, b := (node+1)*m+c, right*m+c
		lo[c], hi[c], miss[c] = min(t.lo[a], t.lo[b]), max(t.hi[a], t.hi[b]), t.miss[a] || t.miss[b]
	}
}

// fold sets lo, hi and miss to the box of every step-th of permuted rows
// [start, end); ≤ ibkSample rows pick about the column all rows would.
func (t *ibkTree) fold(k *IBk, m, start, end, step int, lo, hi []float64, miss []bool) {
	for c := range lo {
		lo[c], hi[c], miss[c] = math.Inf(1), math.Inf(-1), false
	}
	for p := start; p < end; p += step {
		for c, v := range k.cases[t.perm[p]*m : (t.perm[p]+1)*m] {
			if dataset.IsMissing(v) {
				miss[c] = true
			} else {
				lo[c], hi[c] = min(lo[c], v), max(hi[c], v)
			}
		}
	}
}

// selectAt puts the k-th of keys, which are distinct, in neighbour order
// at k, those before it below and those after it above: quickselect with
// Hoare's partition around the middle key, which is never at the end, so
// each round shrinks the range.
func selectAt(keys []neighbour, k int) {
	lo, hi := 0, len(keys)
	for hi-lo > 1 {
		pivot, i, j := keys[lo+(hi-1-lo)/2], lo, hi-1
		for {
			for keys[i].before(pivot) {
				i++
			}
			for pivot.before(keys[j]) {
				j--
			}
			if i >= j {
				break
			}
			keys[i], keys[j] = keys[j], keys[i]
			i, j = i+1, j-1
		}
		if k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
}

// bound is a lower bound on the squared distance from q to every case in
// node's box, summed in plan order (or partly, once above kth). Each term
// is at most any case's: 1 when q's cell is missing; d² for a numeric
// column, d being q's distance to [lo, hi] over the span, capped at 1 when
// the box holds a missing cell; 1 for a nominal q outside [lo, hi], which
// no case matches; else 0. Rounding is monotone, so sums keep the order.
func (t *ibkTree) bound(node, m int, q []float64, plan []ibkColumn, kth float64) float64 {
	lo, hi, miss := t.lo[node*m:(node+1)*m], t.hi[node*m:(node+1)*m], t.miss[node*m:(node+1)*m]
	var s float64
	for _, c := range plan {
		qv := q[c.col]
		switch d := max(lo[c.col]-qv, qv-hi[c.col], 0) / c.span; {
		case dataset.IsMissing(qv):
			s++
		case !(d > 0) || c.kind == ibkConstant: // a NaN, from ±Inf, bounds nothing
		case c.kind == ibkNominal || d*d > 1 && miss[c.col]:
			s++ // a nominal q outside [lo, hi] matches no case
		default:
			s += d * d
		}
		if s > kth {
			break
		}
	}
	return s
}

// visit offers node's cases to sel, nearer child first, skipping a child
// whose bound is above the k-th best. A tie is visited: a case with a
// lower index wins it.
func (t *ibkTree) visit(sel *knn, node, m int, q []float64, plan []ibkColumn) {
	nd := t.nodes[node]
	if nd.right == 0 {
		sel.scan(q, plan, t.rows[nd.start*m:nd.end*m], m, t.perm[nd.start:nd.end], 0)
		return
	}
	a, b := node+1, nd.right
	la, lb := t.bound(a, m, q, plan, sel.kth), t.bound(b, m, q, plan, sel.kth)
	if lb < la {
		a, b, la, lb = b, a, lb, la
	}
	if !(la > sel.kth) {
		t.visit(sel, a, m, q, plan)
	}
	if !(lb > sel.kth) {
		t.visit(sel, b, m, q, plan)
	}
}
