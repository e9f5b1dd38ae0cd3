package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// Cobweb implements Fisher's COBWEB incremental conceptual clustering with
// the CLASSIT extension for numeric attributes (acuity), the algorithm the
// paper wraps as a dedicated Web Service with cluster and getCobwebGraph
// operations (§4.1). Being incremental, it also serves as a streaming
// clusterer.
type Cobweb struct {
	// Acuity is the minimum standard deviation for numeric attributes
	// (CLASSIT's 1/acuity bounds the per-attribute CU contribution).
	Acuity float64
	// Cutoff is the minimum category-utility gain required to keep a new
	// concept; smaller values grow bushier trees.
	Cutoff float64

	root   *ConceptNode
	schema *dataset.Dataset
	cols   []int
	nextID int
}

// ConceptNode is one concept of the COBWEB hierarchy. Exported fields make
// the tree serialisable and renderable by the visualisation services.
type ConceptNode struct {
	ID       int
	Count    float64
	Children []*ConceptNode
	// NomCounts[featureIdx][value] accumulates nominal value weight.
	NomCounts [][]float64
	// Sum / SumSq accumulate numeric moments per feature index.
	Sum, SumSq []float64
}

func init() { Register("Cobweb", func() Clusterer { return &Cobweb{Acuity: 1.0, Cutoff: 0.0028} }) }

// Name implements Clusterer.
func (cw *Cobweb) Name() string { return "Cobweb" }

// Options implements Parameterized.
func (cw *Cobweb) Options() []Option {
	return []Option{
		{Name: "acuity", Description: "minimum numeric standard deviation (CLASSIT)", Default: "1.0"},
		{Name: "cutoff", Description: "category utility threshold for keeping concepts", Default: "0.0028"},
	}
}

// SetOption implements Parameterized.
func (cw *Cobweb) SetOption(name, value string) error {
	switch name {
	case "acuity":
		f, err := strconv.ParseFloat(value, 64)
		if err != nil || f <= 0 {
			return fmt.Errorf("cluster: Cobweb acuity must be positive, got %q", value)
		}
		cw.Acuity = f
	case "cutoff":
		f, err := strconv.ParseFloat(value, 64)
		if err != nil || f < 0 {
			return fmt.Errorf("cluster: Cobweb cutoff must be >= 0, got %q", value)
		}
		cw.Cutoff = f
	default:
		return fmt.Errorf("cluster: Cobweb has no option %q", name)
	}
	return nil
}

// Begin prepares the tree for incremental updates.
func (cw *Cobweb) Begin(schema *dataset.Dataset) error {
	cw.schema = schema
	cw.cols = featureColumns(schema)
	if len(cw.cols) == 0 {
		return fmt.Errorf("cluster: Cobweb: dataset %q has no usable attributes", schema.Relation)
	}
	cw.root = cw.newNode()
	return nil
}

// Build implements Clusterer.
func (cw *Cobweb) Build(d *dataset.Dataset) error {
	if err := cw.Begin(d); err != nil {
		return err
	}
	for _, in := range d.Instances {
		if err := cw.Update(in); err != nil {
			return err
		}
	}
	return nil
}

// Update folds one instance into the hierarchy.
func (cw *Cobweb) Update(in *dataset.Instance) error {
	if cw.root == nil {
		return fmt.Errorf("cluster: Cobweb.Update before Begin/Build")
	}
	cw.insert(cw.root, in)
	return nil
}

func (cw *Cobweb) newNode() *ConceptNode {
	n := &ConceptNode{ID: cw.nextID}
	cw.nextID++
	n.NomCounts = make([][]float64, len(cw.cols))
	n.Sum = make([]float64, len(cw.cols))
	n.SumSq = make([]float64, len(cw.cols))
	for fi, col := range cw.cols {
		a := cw.schema.Attrs[col]
		if a.IsNominal() {
			n.NomCounts[fi] = make([]float64, a.NumValues())
		}
	}
	return n
}

// addTo folds the instance's statistics into node n.
func (cw *Cobweb) addTo(n *ConceptNode, in *dataset.Instance) {
	n.Count += in.Weight
	for fi, col := range cw.cols {
		v := in.Values[col]
		if dataset.IsMissing(v) {
			continue
		}
		if n.NomCounts[fi] != nil {
			n.NomCounts[fi][int(v)] += in.Weight
		} else {
			n.Sum[fi] += v * in.Weight
			n.SumSq[fi] += v * v * in.Weight
		}
	}
}

// clone deep-copies a node's statistics (not its children).
func (cw *Cobweb) cloneStats(n *ConceptNode) *ConceptNode {
	c := cw.newNode()
	c.Count = n.Count
	for fi := range n.NomCounts {
		if n.NomCounts[fi] != nil {
			copy(c.NomCounts[fi], n.NomCounts[fi])
		}
	}
	copy(c.Sum, n.Sum)
	copy(c.SumSq, n.SumSq)
	return c
}

// insert adds the instance below node n (whose own stats are updated).
func (cw *Cobweb) insert(n *ConceptNode, in *dataset.Instance) {
	cw.addTo(n, in)
	if len(n.Children) == 0 {
		if n.Count <= in.Weight {
			return // first instance: n itself represents it
		}
		// Split the leaf: one child holding the old instances, one new.
		old := cw.cloneStats(n)
		old.Count -= in.Weight
		for fi, col := range cw.cols {
			v := in.Values[col]
			if dataset.IsMissing(v) {
				continue
			}
			if old.NomCounts[fi] != nil {
				old.NomCounts[fi][int(v)] -= in.Weight
			} else {
				old.Sum[fi] -= v * in.Weight
				old.SumSq[fi] -= v * v * in.Weight
			}
		}
		fresh := cw.newNode()
		cw.addTo(fresh, in)
		n.Children = []*ConceptNode{old, fresh}
		return
	}
	// Score hosting the instance in each child.
	bestIdx, secondIdx := -1, -1
	bestCU, secondCU := math.Inf(-1), math.Inf(-1)
	for i := range n.Children {
		cu := cw.cuWithInsert(n, in, i)
		if cu > bestCU {
			secondIdx, secondCU = bestIdx, bestCU
			bestIdx, bestCU = i, cu
		} else if cu > secondCU {
			secondIdx, secondCU = i, cu
		}
	}
	newCU := cw.cuWithNewChild(n, in)
	if newCU > bestCU && newCU-bestCU > cw.Cutoff {
		fresh := cw.newNode()
		cw.addTo(fresh, in)
		n.Children = append(n.Children, fresh)
		return
	}
	// Consider merging the two best hosts.
	if secondIdx >= 0 && len(n.Children) > 2 {
		mergeCU := cw.cuWithMerge(n, in, bestIdx, secondIdx)
		if mergeCU > bestCU && mergeCU > newCU {
			merged := cw.newNode()
			a, b := n.Children[bestIdx], n.Children[secondIdx]
			cw.foldStats(merged, a)
			cw.foldStats(merged, b)
			merged.Children = []*ConceptNode{a, b}
			kept := n.Children[:0]
			for i, c := range n.Children {
				if i != bestIdx && i != secondIdx {
					kept = append(kept, c)
				}
			}
			n.Children = append(kept, merged)
			cw.insert(merged, in)
			return
		}
	}
	cw.insert(n.Children[bestIdx], in)
}

// foldStats adds src's statistics into dst.
func (cw *Cobweb) foldStats(dst, src *ConceptNode) {
	dst.Count += src.Count
	for fi := range src.NomCounts {
		if src.NomCounts[fi] != nil {
			for v, w := range src.NomCounts[fi] {
				dst.NomCounts[fi][v] += w
			}
		} else {
			dst.Sum[fi] += src.Sum[fi]
			dst.SumSq[fi] += src.SumSq[fi]
		}
	}
}

// attrScore returns the expected-correct-guesses mass of a node:
// sum_i sum_j P(A_i=V_ij)^2 for nominals and (1/(2 sqrt(pi))) * 1/sigma for
// numerics (CLASSIT), with sigma floored at the acuity.
func (cw *Cobweb) attrScore(n *ConceptNode) float64 {
	if n.Count <= 0 {
		return 0
	}
	var s float64
	for fi := range cw.cols {
		if n.NomCounts[fi] != nil {
			for _, w := range n.NomCounts[fi] {
				p := w / n.Count
				s += p * p
			}
		} else {
			mean := n.Sum[fi] / n.Count
			variance := n.SumSq[fi]/n.Count - mean*mean
			sigma := math.Sqrt(math.Max(variance, 0))
			if sigma < cw.Acuity {
				sigma = cw.Acuity
			}
			s += 1 / (2 * math.SqrtPi * sigma)
		}
	}
	return s
}

// cuOf computes the category utility of a partition given the parent stats.
func (cw *Cobweb) cuOf(parent *ConceptNode, children []*ConceptNode) float64 {
	if parent.Count <= 0 || len(children) == 0 {
		return 0
	}
	parentScore := cw.attrScore(parent)
	var cu float64
	for _, c := range children {
		if c.Count <= 0 {
			continue
		}
		cu += c.Count / parent.Count * (cw.attrScore(c) - parentScore)
	}
	return cu / float64(len(children))
}

// cuWithInsert scores the partition when in joins child idx. Parent n's
// stats already include in.
func (cw *Cobweb) cuWithInsert(n *ConceptNode, in *dataset.Instance, idx int) float64 {
	tmp := make([]*ConceptNode, len(n.Children))
	copy(tmp, n.Children)
	host := cw.cloneStats(n.Children[idx])
	cw.addTo(host, in)
	tmp[idx] = host
	return cw.cuOf(n, tmp)
}

// cuWithNewChild scores the partition when in becomes its own child.
func (cw *Cobweb) cuWithNewChild(n *ConceptNode, in *dataset.Instance) float64 {
	fresh := cw.newNode()
	cw.addTo(fresh, in)
	tmp := make([]*ConceptNode, len(n.Children)+1)
	copy(tmp, n.Children)
	tmp[len(n.Children)] = fresh
	return cw.cuOf(n, tmp)
}

// cuWithMerge scores the partition when children i and j merge and host in.
func (cw *Cobweb) cuWithMerge(n *ConceptNode, in *dataset.Instance, i, j int) float64 {
	merged := cw.newNode()
	cw.foldStats(merged, n.Children[i])
	cw.foldStats(merged, n.Children[j])
	cw.addTo(merged, in)
	var tmp []*ConceptNode
	for k, c := range n.Children {
		if k != i && k != j {
			tmp = append(tmp, c)
		}
	}
	tmp = append(tmp, merged)
	return cw.cuOf(n, tmp)
}

// Root returns the concept-hierarchy root (the getCobwebGraph payload).
func (cw *Cobweb) Root() *ConceptNode { return cw.root }

// NumClusters implements Clusterer: the number of leaves of the hierarchy.
func (cw *Cobweb) NumClusters() int { return countConceptLeaves(cw.root) }

func countConceptLeaves(n *ConceptNode) int {
	if n == nil {
		return 0
	}
	if len(n.Children) == 0 {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += countConceptLeaves(c)
	}
	return total
}

// Assign implements Clusterer: descend to the best-matching leaf and return
// its ID.
func (cw *Cobweb) Assign(in *dataset.Instance) (int, error) {
	if cw.root == nil {
		return -1, fmt.Errorf("cluster: Cobweb is unbuilt")
	}
	n := cw.root
	for len(n.Children) > 0 {
		bestIdx, bestCU := 0, math.Inf(-1)
		for i := range n.Children {
			cu := cw.cuWithInsert(n, in, i)
			if cu > bestCU {
				bestIdx, bestCU = i, cu
			}
		}
		n = n.Children[bestIdx]
	}
	return n.ID, nil
}

// fittedCols implements rowAssigner.
func (cw *Cobweb) fittedCols() []int { return cw.cols }

// GraphString renders the concept hierarchy as indented text, the textual
// form of the getCobwebGraph reply.
func (cw *Cobweb) GraphString() string {
	var b strings.Builder
	var walk func(n *ConceptNode, depth int)
	walk = func(n *ConceptNode, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("|  ")
		}
		kind := "node"
		if len(n.Children) == 0 {
			kind = "leaf"
		}
		fmt.Fprintf(&b, "%s %d [%.0f]\n", kind, n.ID, n.Count)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if cw.root != nil {
		walk(cw.root, 0)
	}
	return b.String()
}
