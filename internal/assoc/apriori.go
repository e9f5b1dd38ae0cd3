// Package assoc implements association-rule mining, the third algorithm
// family the paper's toolkit exposes (§1: "three types of Web Services ...
// (3) association rules"). The Apriori implementation mines frequent
// itemsets level-wise with candidate pruning and derives rules that meet
// minimum support and confidence, in the style of WEKA's Apriori.
package assoc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Itemset is a sorted set of item IDs with its absolute support count.
type Itemset struct {
	Items   []int
	Support int
}

// Rule is an association rule with its quality measures.
type Rule struct {
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Support    float64  `json:"support"`    // fraction of transactions containing both sides
	Confidence float64  `json:"confidence"` // support / antecedent support
	Lift       float64  `json:"lift"`       // confidence / consequent frequency
	Conviction float64  `json:"conviction"`
}

// String renders the rule in the conventional "A, B => C (conf 0.9)" form.
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (sup=%.3f conf=%.3f lift=%.2f)",
		strings.Join(r.Antecedent, ", "), strings.Join(r.Consequent, ", "),
		r.Support, r.Confidence, r.Lift)
}

// Apriori mines association rules from transactions.
type Apriori struct {
	// MinSupport is the minimum fraction of transactions an itemset must
	// appear in (default 0.1).
	MinSupport float64
	// MinConfidence is the minimum rule confidence (default 0.9).
	MinConfidence float64

	items    []string
	itemIdx  map[string]int
	trans    [][]int
	frequent []Itemset
}

// NewApriori returns an Apriori with WEKA-like defaults.
func NewApriori() *Apriori {
	return &Apriori{MinSupport: 0.1, MinConfidence: 0.9}
}

// Mine finds frequent itemsets and rules over string transactions.
func (ap *Apriori) Mine(transactions [][]string) ([]Rule, error) {
	if len(transactions) == 0 {
		return nil, fmt.Errorf("assoc: no transactions")
	}
	if ap.MinSupport <= 0 || ap.MinSupport > 1 {
		return nil, fmt.Errorf("assoc: MinSupport %v out of (0,1]", ap.MinSupport)
	}
	ap.itemIdx = map[string]int{}
	ap.items = ap.items[:0]
	ap.trans = make([][]int, len(transactions))
	for ti, t := range transactions {
		seen := map[int]bool{}
		row := make([]int, 0, len(t))
		for _, s := range t {
			id, ok := ap.itemIdx[s]
			if !ok {
				id = len(ap.items)
				ap.itemIdx[s] = id
				ap.items = append(ap.items, s)
			}
			if !seen[id] {
				seen[id] = true
				row = append(row, id)
			}
		}
		sort.Ints(row)
		ap.trans[ti] = row
	}
	minCount := int(ap.MinSupport*float64(len(ap.trans)) + 0.5)
	if minCount < 1 {
		minCount = 1
	}

	// L1.
	count1 := make([]int, len(ap.items))
	for _, t := range ap.trans {
		for _, id := range t {
			count1[id]++
		}
	}
	var level []Itemset
	for id, c := range count1 {
		if c >= minCount {
			level = append(level, Itemset{Items: []int{id}, Support: c})
		}
	}
	sort.Slice(level, func(i, j int) bool { return level[i].Items[0] < level[j].Items[0] })
	ap.frequent = append([]Itemset(nil), level...)

	// Level-wise expansion with prefix join + subset pruning.
	for k := 2; len(level) > 0; k++ {
		prev := map[string]bool{}
		for _, is := range level {
			prev[key(is.Items)] = true
		}
		var candidates [][]int
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				a, b := level[i].Items, level[j].Items
				if !samePrefix(a, b) {
					break // level is sorted; later j cannot share the prefix
				}
				cand := append(append([]int(nil), a...), b[len(b)-1])
				if allSubsetsFrequent(cand, prev) {
					candidates = append(candidates, cand)
				}
			}
		}
		counts := make([]int, len(candidates))
		for _, t := range ap.trans {
			if len(t) < k {
				continue
			}
			for ci, cand := range candidates {
				if containsAll(t, cand) {
					counts[ci]++
				}
			}
		}
		level = level[:0]
		for ci, cand := range candidates {
			if counts[ci] >= minCount {
				level = append(level, Itemset{Items: cand, Support: counts[ci]})
			}
		}
		sort.Slice(level, func(i, j int) bool { return lessItems(level[i].Items, level[j].Items) })
		ap.frequent = append(ap.frequent, level...)
	}
	return deriveRules(ap.frequent, ap.ItemName, len(ap.trans), ap.MinConfidence), nil
}

// FrequentItemsets returns the mined itemsets (after Mine).
func (ap *Apriori) FrequentItemsets() []Itemset { return ap.frequent }

// ItemName resolves an item ID.
func (ap *Apriori) ItemName(id int) string { return ap.items[id] }

func key(items []int) string {
	var b strings.Builder
	for i, id := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}

func samePrefix(a, b []int) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return a[len(a)-1] < b[len(b)-1]
}

func allSubsetsFrequent(cand []int, prev map[string]bool) bool {
	tmp := make([]int, 0, len(cand)-1)
	for skip := range cand {
		tmp = tmp[:0]
		for i, id := range cand {
			if i != skip {
				tmp = append(tmp, id)
			}
		}
		if !prev[key(tmp)] {
			return false
		}
	}
	return true
}

// containsAll reports whether sorted transaction t contains all of sorted
// cand.
func containsAll(t, cand []int) bool {
	i := 0
	for _, want := range cand {
		for i < len(t) && t[i] < want {
			i++
		}
		if i >= len(t) || t[i] != want {
			return false
		}
		i++
	}
	return true
}

func lessItems(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func enumerateSubsets(items []int) [][]int {
	n := len(items)
	var out [][]int
	for mask := 1; mask < (1<<n)-1; mask++ {
		var s []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, items[i])
			}
		}
		out = append(out, s)
	}
	return out
}

func difference(all, sub []int) []int {
	inSub := map[int]bool{}
	for _, id := range sub {
		inSub[id] = true
	}
	var out []int
	for _, id := range all {
		if !inSub[id] {
			out = append(out, id)
		}
	}
	return out
}

// TransactionsFromDataset converts a nominal dataset into transactions with
// one "attr=value" item per non-missing cell, WEKA's representation for
// running Apriori on tabular data.
func TransactionsFromDataset(d *dataset.Dataset) ([][]string, error) {
	for _, a := range d.Attrs {
		if a.IsNumeric() {
			return nil, fmt.Errorf("assoc: attribute %q is numeric; discretise before mining", a.Name)
		}
	}
	out := make([][]string, d.NumInstances())
	for i, in := range d.Instances {
		var t []string
		for col, a := range d.Attrs {
			v := in.Values[col]
			if dataset.IsMissing(v) {
				continue
			}
			t = append(t, a.Name+"="+a.Value(int(v)))
		}
		out[i] = t
	}
	return out, nil
}
