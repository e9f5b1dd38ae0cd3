package viz

import (
	"fmt"
	"strings"

	"repro/internal/classify"
	"repro/internal/cluster"
)

// TreeDOT renders a trained decision tree in Graphviz DOT, the "graphical
// representation of the decision tree" of the classify-graph operation
// (§4.1, Figure 4).
func TreeDOT(root *classify.TreeNode) string {
	var b strings.Builder
	b.WriteString("digraph J48 {\n  node [shape=box, fontname=\"Helvetica\"];\n")
	id := 0
	var walk func(n *classify.TreeNode) int
	walk = func(n *classify.TreeNode) int {
		my := id
		id++
		if n.Attr < 0 {
			total := 0.0
			for _, w := range n.Dist {
				total += w
			}
			fmt.Fprintf(&b, "  n%d [label=\"%s (%.1f)\", style=filled, fillcolor=lightgrey];\n",
				my, escape(n.ClassName), total)
			return my
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\"];\n", my, escape(n.AttrName))
		for i, c := range n.Children {
			ci := walk(c)
			label := ""
			if i < len(n.Labels) {
				label = n.Labels[i]
			}
			if !n.Numeric {
				label = "= " + label
			}
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%s\"];\n", my, ci, escape(label))
		}
		return my
	}
	if root != nil {
		walk(root)
	}
	b.WriteString("}\n")
	return b.String()
}

// CobwebDOT renders a COBWEB concept hierarchy in Graphviz DOT — the
// getCobwebGraph payload for the tree plotter (§4.1).
func CobwebDOT(root *cluster.ConceptNode) string {
	var b strings.Builder
	b.WriteString("digraph Cobweb {\n  node [shape=ellipse, fontname=\"Helvetica\"];\n")
	var walk func(n *cluster.ConceptNode)
	walk = func(n *cluster.ConceptNode) {
		shape := ""
		if len(n.Children) == 0 {
			shape = ", style=filled, fillcolor=lightgrey"
		}
		fmt.Fprintf(&b, "  c%d [label=\"C%d\\nn=%.0f\"%s];\n", n.ID, n.ID, n.Count, shape)
		for _, c := range n.Children {
			fmt.Fprintf(&b, "  c%d -> c%d;\n", n.ID, c.ID)
			walk(c)
		}
	}
	if root != nil {
		walk(root)
	}
	b.WriteString("}\n")
	return b.String()
}

// Dendrogram renders hierarchical-clustering merges as an indented outline
// with merge distances (the Cluster Visualizer for agglomerative output).
func Dendrogram(merges []cluster.Merge, n int) string {
	if len(merges) == 0 {
		return "(no merges)\n"
	}
	children := map[int][2]int{}
	dist := map[int]float64{}
	for s, m := range merges {
		id := n + s
		children[id] = [2]int{m.Left, m.Right}
		dist[id] = m.Distance
	}
	rootID := n + len(merges) - 1
	var b strings.Builder
	var walk func(id int, depth int)
	walk = func(id, depth int) {
		pad := strings.Repeat("  ", depth)
		if ch, ok := children[id]; ok {
			fmt.Fprintf(&b, "%smerge@%.3f\n", pad, dist[id])
			walk(ch[0], depth+1)
			walk(ch[1], depth+1)
			return
		}
		fmt.Fprintf(&b, "%sleaf %d\n", pad, id)
	}
	walk(rootID, 0)
	return b.String()
}

// ClusterSummary renders per-cluster sizes as an ASCII histogram, the
// textual Cluster Visualizer output.
func ClusterSummary(assign []int, k int) string {
	counts := make([]float64, k)
	noise := 0
	for _, a := range assign {
		if a >= 0 && a < k {
			counts[a]++
		} else {
			noise++
		}
	}
	labels := make([]string, k)
	for i := range labels {
		labels[i] = fmt.Sprintf("cluster %d", i)
	}
	s := histogram(labels, counts, 40)
	if noise > 0 {
		s += fmt.Sprintf("noise/unassigned: %d\n", noise)
	}
	return s
}

func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
