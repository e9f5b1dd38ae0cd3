package assoc

import (
	"fmt"
	"sort"
)

// FPGrowth mines frequent itemsets with Han's FP-growth algorithm: a
// two-pass construction of the frequent-pattern tree followed by recursive
// conditional-tree mining. It produces exactly the itemsets Apriori finds
// (asserted by the equivalence property test) without candidate
// generation, and is the standard faster baseline on dense data.
type FPGrowth struct {
	// MinSupport is the minimum fraction of transactions (default 0.1).
	MinSupport float64
	// MinConfidence is the minimum rule confidence (default 0.9).
	MinConfidence float64

	items    []string
	itemIdx  map[string]int
	nTrans   int
	frequent []Itemset
}

// NewFPGrowth returns an FPGrowth with the same defaults as NewApriori.
func NewFPGrowth() *FPGrowth {
	return &FPGrowth{MinSupport: 0.1, MinConfidence: 0.9}
}

// fpNode is one node of the FP-tree.
type fpNode struct {
	item     int
	count    int
	parent   *fpNode
	children map[int]*fpNode
	next     *fpNode // header-table chain
}

// Mine finds frequent itemsets and derives rules, mirroring Apriori.Mine.
func (fp *FPGrowth) Mine(transactions [][]string) ([]Rule, error) {
	if len(transactions) == 0 {
		return nil, fmt.Errorf("assoc: no transactions")
	}
	if fp.MinSupport <= 0 || fp.MinSupport > 1 {
		return nil, fmt.Errorf("assoc: MinSupport %v out of (0,1]", fp.MinSupport)
	}
	fp.nTrans = len(transactions)
	minCount := int(fp.MinSupport*float64(fp.nTrans) + 0.5)
	if minCount < 1 {
		minCount = 1
	}
	// Pass 1: item frequencies.
	fp.itemIdx = map[string]int{}
	fp.items = fp.items[:0]
	counts := []int{}
	encoded := make([][]int, len(transactions))
	for ti, t := range transactions {
		seen := map[int]bool{}
		row := make([]int, 0, len(t))
		for _, s := range t {
			id, ok := fp.itemIdx[s]
			if !ok {
				id = len(fp.items)
				fp.itemIdx[s] = id
				fp.items = append(fp.items, s)
				counts = append(counts, 0)
			}
			if !seen[id] {
				seen[id] = true
				row = append(row, id)
				counts[id]++
			}
		}
		encoded[ti] = row
	}
	// Frequency-descending item order (ties by ID for determinism).
	order := make([]int, 0, len(fp.items))
	for id, c := range counts {
		if c >= minCount {
			order = append(order, id)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if counts[order[i]] != counts[order[j]] {
			return counts[order[i]] > counts[order[j]]
		}
		return order[i] < order[j]
	})
	rank := map[int]int{}
	for r, id := range order {
		rank[id] = r
	}
	// Pass 2: build the FP-tree.
	root := &fpNode{item: -1, children: map[int]*fpNode{}}
	header := make([]*fpNode, len(order)) // by rank
	for _, row := range encoded {
		var keep []int
		for _, id := range row {
			if _, ok := rank[id]; ok {
				keep = append(keep, id)
			}
		}
		sort.Slice(keep, func(i, j int) bool { return rank[keep[i]] < rank[keep[j]] })
		cur := root
		for _, id := range keep {
			child, ok := cur.children[id]
			if !ok {
				child = &fpNode{item: id, parent: cur, children: map[int]*fpNode{}}
				cur.children[id] = child
				r := rank[id]
				child.next = header[r]
				header[r] = child
			}
			child.count++
			cur = child
		}
	}
	// Recursive mining.
	fp.frequent = fp.frequent[:0]
	fp.mineTree(header, order, rank, nil, minCount)
	// Sort itemsets for deterministic output (by size then lexicographic).
	sort.Slice(fp.frequent, func(i, j int) bool {
		a, b := fp.frequent[i].Items, fp.frequent[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return lessItems(a, b)
	})
	rules := deriveRules(fp.frequent, func(id int) string { return fp.items[id] },
		fp.nTrans, fp.MinConfidence)
	return rules, nil
}

// mineTree emits itemsets for every frequent item in the current
// (conditional) tree and recurses on its conditional pattern base.
func (fp *FPGrowth) mineTree(header []*fpNode, order []int, rank map[int]int, suffix []int, minCount int) {
	// Walk items bottom-up (least frequent first).
	for r := len(order) - 1; r >= 0; r-- {
		id := order[r]
		var support int
		for n := header[r]; n != nil; n = n.next {
			support += n.count
		}
		if support < minCount {
			continue
		}
		itemset := append(append([]int(nil), suffix...), id)
		sort.Ints(itemset)
		fp.frequent = append(fp.frequent, Itemset{Items: itemset, Support: support})
		// Conditional pattern base: prefix paths of each node, weighted.
		type weightedPath struct {
			items []int
			count int
		}
		var base []weightedPath
		condCounts := map[int]int{}
		for n := header[r]; n != nil; n = n.next {
			var path []int
			for p := n.parent; p != nil && p.item >= 0; p = p.parent {
				path = append(path, p.item)
			}
			if len(path) == 0 {
				continue
			}
			base = append(base, weightedPath{path, n.count})
			for _, it := range path {
				condCounts[it] += n.count
			}
		}
		// Conditional frequent items and their order.
		var condOrder []int
		for it, c := range condCounts {
			if c >= minCount {
				condOrder = append(condOrder, it)
			}
		}
		if len(condOrder) == 0 {
			continue
		}
		sort.Slice(condOrder, func(i, j int) bool {
			if condCounts[condOrder[i]] != condCounts[condOrder[j]] {
				return condCounts[condOrder[i]] > condCounts[condOrder[j]]
			}
			return condOrder[i] < condOrder[j]
		})
		condRank := map[int]int{}
		for cr, it := range condOrder {
			condRank[it] = cr
		}
		// Build the conditional tree.
		condRoot := &fpNode{item: -1, children: map[int]*fpNode{}}
		condHeader := make([]*fpNode, len(condOrder))
		for _, wp := range base {
			var keep []int
			for _, it := range wp.items {
				if _, ok := condRank[it]; ok {
					keep = append(keep, it)
				}
			}
			sort.Slice(keep, func(i, j int) bool { return condRank[keep[i]] < condRank[keep[j]] })
			cur := condRoot
			for _, it := range keep {
				child, ok := cur.children[it]
				if !ok {
					child = &fpNode{item: it, parent: cur, children: map[int]*fpNode{}}
					cur.children[it] = child
					cr := condRank[it]
					child.next = condHeader[cr]
					condHeader[cr] = child
				}
				child.count += wp.count
				cur = child
			}
		}
		fp.mineTree(condHeader, condOrder, condRank, itemset, minCount)
	}
}

// FrequentItemsets returns the mined itemsets (after Mine).
func (fp *FPGrowth) FrequentItemsets() []Itemset { return fp.frequent }

// deriveRules generates all rules meeting minConfidence from a complete set
// of frequent itemsets (shared by the Apriori and FP-growth miners).
func deriveRules(itemsets []Itemset, name func(int) string, nTrans int, minConfidence float64) []Rule {
	supports := map[string]int{}
	for _, is := range itemsets {
		supports[key(is.Items)] = is.Support
	}
	names := func(ids []int) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = name(id)
		}
		return out
	}
	n := float64(nTrans)
	var out []Rule
	for _, is := range itemsets {
		if len(is.Items) < 2 {
			continue
		}
		for _, ante := range enumerateSubsets(is.Items) {
			if len(ante) == 0 || len(ante) == len(is.Items) {
				continue
			}
			anteSup, ok := supports[key(ante)]
			if !ok || anteSup == 0 {
				continue
			}
			conf := float64(is.Support) / float64(anteSup)
			if conf+1e-12 < minConfidence {
				continue
			}
			cons := difference(is.Items, ante)
			consFreq := float64(supports[key(cons)]) / n
			lift := 0.0
			if consFreq > 0 {
				lift = conf / consFreq
			}
			conviction := 0.0
			if conf < 1 {
				conviction = (1 - consFreq) / (1 - conf)
			}
			out = append(out, Rule{
				Antecedent: names(ante),
				Consequent: names(cons),
				Support:    float64(is.Support) / n,
				Confidence: conf,
				Lift:       lift,
				Conviction: conviction,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return fmt.Sprint(out[i]) < fmt.Sprint(out[j])
	})
	return out
}
