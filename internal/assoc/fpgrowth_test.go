package assoc

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
)

func itemsetSet(sets []Itemset, name func(int) string) map[string]int {
	out := map[string]int{}
	for _, is := range sets {
		names := make([]string, len(is.Items))
		for i, id := range is.Items {
			names[i] = name(id)
		}
		sort.Strings(names)
		out[fmt.Sprint(names)] = is.Support
	}
	return out
}

// TestFPGrowthEquivalentToApriori: both miners must find exactly the same
// frequent itemsets with the same supports — the fundamental correctness
// property of a second miner.
func TestFPGrowthEquivalentToApriori(t *testing.T) {
	f := func(seedRaw uint8, supRaw uint8) bool {
		trans := datagen.Baskets(150, 10, 3, 0.9, int64(seedRaw))
		minSup := 0.05 + float64(supRaw%20)/100 // 0.05 .. 0.24
		ap := NewApriori()
		ap.MinSupport = minSup
		ap.MinConfidence = 0.99
		if _, err := ap.Mine(trans); err != nil {
			return false
		}
		fp := NewFPGrowth()
		fp.MinSupport = minSup
		fp.MinConfidence = 0.99
		if _, err := fp.Mine(trans); err != nil {
			return false
		}
		a := itemsetSet(ap.FrequentItemsets(), ap.ItemName)
		b := itemsetSet(fp.FrequentItemsets(), func(id int) string { return fp.items[id] })
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFPGrowthRulesMatchApriori(t *testing.T) {
	trans := datagen.Baskets(400, 12, 2, 0.95, 9)
	ap := NewApriori()
	ap.MinSupport = 0.08
	ap.MinConfidence = 0.8
	apRules, err := ap.Mine(trans)
	if err != nil {
		t.Fatal(err)
	}
	fp := NewFPGrowth()
	fp.MinSupport = 0.08
	fp.MinConfidence = 0.8
	fpRules, err := fp.Mine(trans)
	if err != nil {
		t.Fatal(err)
	}
	if len(apRules) != len(fpRules) {
		t.Fatalf("rule counts differ: apriori %d vs fp-growth %d", len(apRules), len(fpRules))
	}
	// Rules are sorted by the same criteria; compare as string sets.
	set := map[string]bool{}
	for _, r := range apRules {
		set[r.String()] = true
	}
	for _, r := range fpRules {
		if !set[r.String()] {
			t.Fatalf("fp-growth rule absent from apriori: %s", r)
		}
	}
}

func TestFPGrowthBasics(t *testing.T) {
	trans := [][]string{
		{"bread", "milk"},
		{"bread", "milk", "eggs"},
		{"bread"},
		{"milk"},
	}
	fp := NewFPGrowth()
	fp.MinSupport = 0.5
	fp.MinConfidence = 0.1
	if _, err := fp.Mine(trans); err != nil {
		t.Fatal(err)
	}
	sets := itemsetSet(fp.FrequentItemsets(), func(id int) string { return fp.items[id] })
	if sets["[bread]"] != 3 || sets["[milk]"] != 3 || sets["[bread milk]"] != 2 {
		t.Fatalf("itemsets = %v", sets)
	}
	if _, ok := sets["[eggs]"]; ok {
		t.Fatal("infrequent item survived")
	}
}

func TestFPGrowthErrors(t *testing.T) {
	fp := NewFPGrowth()
	if _, err := fp.Mine(nil); err == nil {
		t.Fatal("empty transactions accepted")
	}
	fp.MinSupport = 0
	if _, err := fp.Mine([][]string{{"a"}}); err == nil {
		t.Fatal("MinSupport 0 accepted")
	}
}
