package classify

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/algo"
	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// J48 is a C4.5 decision-tree learner: gain-ratio attribute selection,
// multiway splits on nominal attributes, binary splits on numeric
// attributes, fractional-weight handling of missing values, and pessimistic
// (confidence-factor) subtree-replacement pruning. It is the algorithm
// behind the paper's J48 Web Service and the case study of §5 (Figure 4).
type J48 struct {
	// ConfidenceFactor is the pruning confidence (C4.5's CF, default 0.25);
	// smaller values prune more aggressively.
	ConfidenceFactor float64
	// MinLeaf is the minimum instance weight required in at least two
	// branches of a split (C4.5's -M, default 2).
	MinLeaf float64
	// Unpruned disables pruning when true.
	Unpruned bool
	// UseInfoGain selects raw information gain instead of C4.5's gain
	// ratio as the split criterion (an ID3-style ablation; biased towards
	// many-valued attributes).
	UseInfoGain bool

	treeModel
	counts []float64 // nominalGain's table, reused from call to call
}

// TreeNode is one node of a trained decision tree.
type TreeNode struct {
	// Attr is the splitting column, or -1 for a leaf.
	Attr int
	// AttrName is the splitting attribute's name ("" for a leaf).
	AttrName string
	// Numeric marks a binary numeric split: Children[0] holds values <=
	// Threshold, Children[1] the rest.
	Numeric   bool
	Threshold float64
	// Labels holds, for nominal splits, the branch value names parallel to
	// Children.
	Labels   []string
	Children []*TreeNode
	// Dist is the training class-weight distribution at this node.
	Dist []float64
	// ClassIdx / ClassName identify the majority class at this node.
	ClassIdx  int
	ClassName string
}

func init() {
	register("J48", func() Classifier { return NewJ48() })
}

// NewJ48 returns a J48 with C4.5's default parameters.
func NewJ48() *J48 {
	return &J48{ConfidenceFactor: 0.25, MinLeaf: 2}
}

// Name implements Classifier.
func (j *J48) Name() string { return "J48" }

// Snapshot codes the trained model for the model store.
func (j *J48) Snapshot(c binfmt.Codec) {
	c.F64(&j.ConfidenceFactor)
	c.F64(&j.MinLeaf)
	c.Bool(&j.Unpruned)
	c.Bool(&j.UseInfoGain)
	j.treeModel.snapshot(c)
}

// Options implements algo.Parameterized, mirroring WEKA's -C and -M flags.
func (j *J48) Options() []option {
	return []option{
		algo.Float("confidenceFactor", "pruning confidence factor (smaller prunes more)", &j.ConfidenceFactor, algo.Above(0).AtMost(0.5)),
		algo.Float("minLeaf", "minimum instance weight per split branch", &j.MinLeaf, algo.AtLeast(1)),
		algo.Bool("unpruned", "disable pruning (true/false)", &j.Unpruned),
		algo.Bool("useInfoGain", "split on information gain instead of gain ratio (true/false)", &j.UseInfoGain),
	}
}

// SetOption implements algo.Parameterized.
func (j *J48) SetOption(name, value string) error { return Registry.Set(j, name, value) }

// Train implements Classifier.
func (j *J48) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	d = d.DeleteWithMissingClass()
	if d.NumInstances() == 0 {
		return fmt.Errorf("classify: J48: every instance has a missing class")
	}
	j.classAttr = d.ClassAttribute()
	j.classIndex = d.ClassIndex
	// Work on cloned instances: missing-value handling mutates weights.
	work := make([]*dataset.Instance, d.NumInstances())
	for i, in := range d.Instances {
		work[i] = in.Clone()
	}
	root := j.grow(d, work)
	if !j.Unpruned {
		j.prune(root)
	}
	j.flatten(root)
	return nil
}

// grow builds the subtree over instances ins.
func (j *J48) grow(d *dataset.Dataset, ins []*dataset.Instance) *TreeNode {
	node := newLeaf(classDist(ins, j.classIndex, j.classAttr.NumValues()))
	total := sum(node.Dist)
	if total < 2*j.MinLeaf || node.Dist[node.ClassIdx] == total {
		return node // too small or pure
	}
	attr, threshold, gainOK := j.selectSplit(d, ins)
	if !gainOK {
		return node
	}
	branches, labels := j.partition(d, ins, attr, threshold)
	// Require at least two branches with MinLeaf weight (C4.5's -M).
	nonTrivial := 0
	for _, b := range branches {
		if weightOf(b) >= j.MinLeaf {
			nonTrivial++
		}
	}
	if nonTrivial < 2 {
		return node
	}
	return node.split(d.Attrs[attr], attr, threshold, labels, branches,
		func(b []*dataset.Instance) *TreeNode { return j.grow(d, b) })
}

// newLeaf returns a leaf predicting the majority class of dist.
func newLeaf(dist []float64) *TreeNode {
	return &TreeNode{Attr: -1, Dist: dist, ClassIdx: maxIdx(dist)}
}

// split turns n into a split on a (column attr) with a child per branch:
// grown by grow, or for an empty branch a leaf predicting n's majority.
func (n *TreeNode) split(a *dataset.Attribute, attr int, threshold float64, labels []string,
	branches [][]*dataset.Instance, grow func([]*dataset.Instance) *TreeNode) *TreeNode {
	n.Attr, n.AttrName, n.Numeric, n.Threshold, n.Labels = attr, a.Name, a.IsNumeric(), threshold, labels
	n.Children = make([]*TreeNode, len(branches))
	for i, b := range branches {
		if len(b) == 0 {
			n.Children[i] = &TreeNode{Attr: -1, Dist: make([]float64, len(n.Dist)), ClassIdx: n.ClassIdx}
		} else {
			n.Children[i] = grow(b)
		}
	}
	return n
}

// selectSplit chooses the attribute (and numeric threshold) with the best
// gain ratio among attributes whose information gain is at least the mean
// positive gain, per C4.5.
func (j *J48) selectSplit(d *dataset.Dataset, ins []*dataset.Instance) (attr int, threshold float64, ok bool) {
	type cand struct {
		attr      int
		threshold float64
		gain      float64
		ratio     float64
	}
	var cands []cand
	baseH := dataset.Entropy(classDist(ins, j.classIndex, j.classAttr.NumValues()))
	totalW := weightOf(ins)
	for col, a := range d.Attrs {
		if col == j.classIndex || a.IsString() {
			continue
		}
		var g, si, th float64
		if a.IsNominal() {
			g, si = j.nominalGain(ins, col, a.NumValues(), baseH, totalW)
		} else {
			g, si, th = j.numericGain(ins, col, baseH, totalW)
		}
		if g <= 1e-9 || si <= 1e-9 {
			continue
		}
		ratio := g / si
		if j.UseInfoGain {
			ratio = g
		}
		cands = append(cands, cand{col, th, g, ratio})
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	var meanGain float64
	for _, c := range cands {
		meanGain += c.gain
	}
	meanGain /= float64(len(cands))
	best := -1
	for i, c := range cands {
		if c.gain+1e-12 < meanGain {
			continue
		}
		if best < 0 || c.ratio > cands[best].ratio {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return cands[best].attr, cands[best].threshold, true
}

// nominalGain returns the information gain and split information of a
// multiway split on nominal column col. Missing values are excluded from
// the gain computation and their mass reduces the gain proportionally
// (C4.5's treatment).
func (j *J48) nominalGain(ins []*dataset.Instance, col, numValues int, baseH, totalW float64) (gain, splitInfo float64) {
	k := j.classAttr.NumValues()
	byValue := slices.Grow(j.counts[:0], numValues*k)[:numValues*k] // k class weights per value
	clear(byValue)
	j.counts = byValue
	var knownW float64
	for _, in := range ins {
		v := in.Values[col]
		if dataset.IsMissing(v) {
			continue
		}
		byValue[int(v)*k : int(v)*k+k][int(in.Values[j.classIndex])] += in.Weight
		knownW += in.Weight
	}
	if knownW <= 0 {
		return 0, 0
	}
	var condH float64
	for r := 0; r < len(byValue); r += k {
		row := byValue[r : r+k]
		w := sum(row)
		if w > 0 {
			condH += w / knownW * dataset.Entropy(row)
			p := w / knownW
			splitInfo -= p * math.Log2(p)
		}
	}
	gain = (knownW / totalW) * (baseH - condH)
	return gain, splitInfo
}

// numericGain finds the best binary threshold on numeric column col and
// returns its gain, split information and threshold.
func (j *J48) numericGain(ins []*dataset.Instance, col int, baseH, totalW float64) (gain, splitInfo, threshold float64) {
	k := j.classAttr.NumValues()
	type pt struct{ v, cls, w float64 }
	var pts []pt
	for _, in := range ins {
		v := in.Values[col]
		if dataset.IsMissing(v) {
			continue
		}
		pts = append(pts, pt{v, in.Values[j.classIndex], in.Weight})
	}
	if len(pts) < 2 {
		return 0, 0, 0
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].v < pts[j].v })
	knownW := 0.0
	right := make([]float64, k)
	for _, p := range pts {
		right[int(p.cls)] += p.w
		knownW += p.w
	}
	left := make([]float64, k)
	bestGain, bestTh := -1.0, 0.0
	var leftW float64
	for i := 0; i+1 < len(pts); i++ {
		left[int(pts[i].cls)] += pts[i].w
		right[int(pts[i].cls)] -= pts[i].w
		leftW += pts[i].w
		if pts[i].v == pts[i+1].v {
			continue
		}
		if leftW < j.MinLeaf || knownW-leftW < j.MinLeaf {
			continue
		}
		condH := leftW/knownW*dataset.Entropy(left) + (knownW-leftW)/knownW*dataset.Entropy(right)
		g := baseH - condH
		if g > bestGain {
			bestGain = g
			bestTh = (pts[i].v + pts[i+1].v) / 2
		}
	}
	if bestGain <= 0 {
		return 0, 0, 0
	}
	// C4.5 penalises numeric splits by log2(#candidates)/N.
	distinct := 1
	for i := 1; i < len(pts); i++ {
		if pts[i].v != pts[i-1].v {
			distinct++
		}
	}
	bestGain -= math.Log2(float64(distinct-1)) / knownW
	if bestGain <= 0 {
		return 0, 0, 0
	}
	// Split info of the induced binary partition.
	var lw float64
	for _, p := range pts {
		if p.v <= bestTh {
			lw += p.w
		}
	}
	for _, w := range []float64{lw, knownW - lw} {
		if w > 0 {
			p := w / knownW
			splitInfo -= p * math.Log2(p)
		}
	}
	gain = (knownW / totalW) * bestGain
	return gain, splitInfo, bestTh
}

// partition splits ins on attribute attr; instances with a missing value are
// distributed to every branch with proportionally reduced weight (C4.5's
// fractional instances).
func (j *J48) partition(d *dataset.Dataset, ins []*dataset.Instance, attr int, threshold float64) ([][]*dataset.Instance, []string) {
	a := d.Attrs[attr]
	var nBranch int
	var labels []string
	if a.IsNumeric() {
		nBranch = 2
		labels = []string{
			fmt.Sprintf("<= %g", threshold),
			fmt.Sprintf("> %g", threshold),
		}
	} else {
		nBranch = a.NumValues()
		labels = a.Values()
	}
	branchOf := func(v float64) int {
		if !a.IsNumeric() {
			return int(v)
		}
		if v > threshold {
			return 1
		}
		return 0
	}
	sizes, branchW := make([]int, nBranch), make([]float64, nBranch)
	var missing []*dataset.Instance
	var knownW float64
	for _, in := range ins {
		if v := in.Values[attr]; dataset.IsMissing(v) {
			missing = append(missing, in)
		} else {
			b := branchOf(v)
			sizes[b]++
			branchW[b] += in.Weight
			knownW += in.Weight
		}
	}
	if knownW <= 0 {
		missing = nil
	}
	// The branches are carved from one backing slice, each with room for
	// its known instances and a fraction of every missing one.
	backing, branches := make([]*dataset.Instance, len(ins)+(nBranch-1)*len(missing)), make([][]*dataset.Instance, nBranch)
	for b, n := range sizes {
		branches[b], backing = backing[:0:n+len(missing)], backing[n+len(missing):]
	}
	for _, in := range ins {
		if v := in.Values[attr]; !dataset.IsMissing(v) {
			b := branchOf(v)
			branches[b] = append(branches[b], in)
		}
	}
	for _, in := range missing {
		for b := range branches {
			if branchW[b] <= 0 {
				continue
			}
			frac := in.Clone()
			frac.Weight = in.Weight * branchW[b] / knownW
			branches[b] = append(branches[b], frac)
		}
	}
	return branches, labels
}

// prune applies subtree replacement bottom-up using C4.5's pessimistic error
// estimate at confidence CF.
func (j *J48) prune(n *TreeNode) {
	if n.Attr < 0 {
		return
	}
	for _, c := range n.Children {
		j.prune(c)
	}
	leafErr := pessimisticError(n.Dist, j.ConfidenceFactor)
	var subtreeErr float64
	for _, c := range n.Children {
		subtreeErr += subtreeError(c, j.ConfidenceFactor)
	}
	if leafErr <= subtreeErr+0.1 {
		n.Attr = -1
		n.AttrName = ""
		n.Children = nil
		n.Labels = nil
	}
}

func subtreeError(n *TreeNode, cf float64) float64 {
	if n.Attr < 0 {
		return pessimisticError(n.Dist, cf)
	}
	var e float64
	for _, c := range n.Children {
		e += subtreeError(c, cf)
	}
	return e
}

// pessimisticError returns N * upper-confidence error rate for a leaf with
// the given class distribution, following C4.5 (WEKA's Stats.addErrs).
func pessimisticError(dist []float64, cf float64) float64 {
	total := sum(dist)
	if total <= 0 {
		return 0
	}
	errs := total - dist[maxIdx(dist)]
	return errs + addErrs(total, errs, cf)
}

// addErrs computes the additional pessimistic errors for e observed errors
// in n instances at confidence cf (C4.5 / WEKA implementation).
func addErrs(n, e, cf float64) float64 {
	if cf > 0.5 {
		return 0
	}
	if e == 0 {
		return n * (1 - math.Pow(cf, 1/n))
	}
	if e < 1 {
		base := n * (1 - math.Pow(cf, 1/n))
		return base + e*(addErrs(n, 1, cf)-base)
	}
	if e+0.5 >= n {
		return math.Max(n-e, 0)
	}
	z := normalInverse(1 - cf)
	f := (e + 0.5) / n
	r := (f + z*z/(2*n) + z*math.Sqrt(f/n-f*f/n+z*z/(4*n*n))) / (1 + z*z/n)
	return r*n - e
}

// normalInverse approximates the standard normal quantile function using
// Acklam's rational approximation (relative error < 1.15e-9).
func normalInverse(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	dd := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	}
}

// Distribution implements Classifier; missing split values descend all
// branches with weights proportional to the training mass of each branch.
func (j *J48) Distribution(in *dataset.Instance) ([]float64, error) {
	return j.distribution(j.Name(), in, nil)
}

// Tree returns a fresh *TreeNode copy of the trained tree (nil before
// Train); changing it leaves the model as it was.
func (j *J48) Tree() *TreeNode { return j.view(0) }

// NumLeaves returns the number of leaves of the trained tree.
func (j *J48) NumLeaves() int {
	leaves := 0
	for _, nd := range j.nodes {
		if nd.attr < 0 {
			leaves++
		}
	}
	return leaves
}

// TreeSize returns the total number of nodes of the trained tree.
func (j *J48) TreeSize() int { return len(j.nodes) }

// String renders the tree in WEKA's textual J48 layout, the "textual output
// specifying the classification decision tree" of §4.1.
func (j *J48) String() string {
	root := j.Tree()
	if root == nil {
		return "J48: untrained"
	}
	var b strings.Builder
	b.WriteString("J48 pruned tree\n------------------\n\n")
	writeTree(&b, root, 0)
	fmt.Fprintf(&b, "\nNumber of Leaves  : %d\n\nSize of the tree : %d\n",
		j.NumLeaves(), j.TreeSize())
	return b.String()
}

func writeTree(b *strings.Builder, n *TreeNode, depth int) {
	if n.Attr < 0 {
		return
	}
	for i, c := range n.Children {
		for k := 0; k < depth; k++ {
			b.WriteString("|   ")
		}
		branch := ""
		if n.Numeric {
			branch = n.Labels[i]
		} else {
			branch = "= " + n.Labels[i]
		}
		fmt.Fprintf(b, "%s %s", n.AttrName, branch)
		if c.Attr < 0 {
			total := sum(c.Dist)
			errs := total - c.Dist[c.ClassIdx]
			if errs > 1e-9 {
				fmt.Fprintf(b, ": %s (%.2f/%.2f)\n", c.ClassName, total, errs)
			} else {
				fmt.Fprintf(b, ": %s (%.2f)\n", c.ClassName, total)
			}
		} else {
			b.WriteByte('\n')
			writeTree(b, c, depth+1)
		}
	}
}

func classDist(ins []*dataset.Instance, classIndex, k int) []float64 {
	dist := make([]float64, k)
	for _, in := range ins {
		v := in.Values[classIndex]
		if !dataset.IsMissing(v) {
			dist[int(v)] += in.Weight
		}
	}
	return dist
}

func weightOf(ins []*dataset.Instance) float64 {
	var w float64
	for _, in := range ins {
		w += in.Weight
	}
	return w
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
