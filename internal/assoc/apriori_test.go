package assoc

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
)

func TestAprioriRecoversPlantedRule(t *testing.T) {
	trans := datagen.Baskets(1000, 12, 2, 0.97, 3)
	ap := NewApriori()
	ap.MinSupport = 0.05
	ap.MinConfidence = 0.8
	rules, err := ap.Mine(trans)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rules {
		if len(r.Antecedent) == 1 && r.Antecedent[0] == "item0" &&
			len(r.Consequent) == 1 && r.Consequent[0] == "item1" {
			found = true
			if r.Confidence < 0.8 {
				t.Fatalf("planted rule confidence %v", r.Confidence)
			}
			if r.Lift <= 1 {
				t.Fatalf("planted rule lift %v, want > 1", r.Lift)
			}
		}
	}
	if !found {
		t.Fatalf("planted rule item0=>item1 not recovered in %d rules", len(rules))
	}
}

func TestAprioriSupportCounts(t *testing.T) {
	trans := [][]string{
		{"bread", "milk"},
		{"bread", "milk", "eggs"},
		{"bread"},
		{"milk"},
	}
	ap := NewApriori()
	ap.MinSupport = 0.5
	ap.MinConfidence = 0.1
	if _, err := ap.Mine(trans); err != nil {
		t.Fatal(err)
	}
	// bread: 3/4, milk: 3/4, {bread,milk}: 2/4 -> all >= 0.5.
	sets := ap.FrequentItemsets()
	supports := map[string]int{}
	for _, is := range sets {
		var names []string
		for _, id := range is.Items {
			names = append(names, ap.ItemName(id))
		}
		supports[strings.Join(names, "+")] = is.Support
	}
	if supports["bread"] != 3 || supports["milk"] != 3 {
		t.Fatalf("1-itemset supports: %v", supports)
	}
	if supports["bread+milk"] != 2 && supports["milk+bread"] != 2 {
		t.Fatalf("pair support: %v", supports)
	}
	// eggs (1/4) must be pruned.
	if _, ok := supports["eggs"]; ok {
		t.Fatal("infrequent item survived")
	}
}

func TestRuleMeasures(t *testing.T) {
	// a appears in 4/8, b in 4/8, both in 4/8 => a->b has conf 1, lift 2.
	var trans [][]string
	for i := 0; i < 4; i++ {
		trans = append(trans, []string{"a", "b"})
	}
	for i := 0; i < 4; i++ {
		trans = append(trans, []string{"c"})
	}
	ap := NewApriori()
	ap.MinSupport = 0.25
	ap.MinConfidence = 0.9
	rules, err := ap.Mine(trans)
	if err != nil {
		t.Fatal(err)
	}
	var ab *Rule
	for i := range rules {
		if len(rules[i].Antecedent) == 1 && rules[i].Antecedent[0] == "a" {
			ab = &rules[i]
		}
	}
	if ab == nil {
		t.Fatalf("a=>b missing from %v", rules)
	}
	if ab.Confidence != 1 || ab.Support != 0.5 {
		t.Fatalf("a=>b: %+v", *ab)
	}
	if ab.Lift != 2 {
		t.Fatalf("lift = %v, want 2", ab.Lift)
	}
}

func TestAprioriDuplicateItemsInTransaction(t *testing.T) {
	ap := NewApriori()
	ap.MinSupport = 0.5
	ap.MinConfidence = 0.5
	if _, err := ap.Mine([][]string{{"x", "x", "y"}, {"x", "y"}}); err != nil {
		t.Fatal(err)
	}
	for _, is := range ap.FrequentItemsets() {
		if len(is.Items) == 1 && ap.ItemName(is.Items[0]) == "x" && is.Support != 2 {
			t.Fatalf("duplicate item double-counted: support %d", is.Support)
		}
	}
}

func TestAprioriErrors(t *testing.T) {
	ap := NewApriori()
	if _, err := ap.Mine(nil); err == nil {
		t.Fatal("empty transaction set accepted")
	}
	ap.MinSupport = 0
	if _, err := ap.Mine([][]string{{"a"}}); err == nil {
		t.Fatal("MinSupport 0 accepted")
	}
}

// TestSupportMonotonicity: the anti-monotone property — any frequent
// itemset's sub-itemsets have at least its support.
func TestSupportMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		trans := datagen.Baskets(120, 8, 2, 0.9, seed)
		ap := NewApriori()
		ap.MinSupport = 0.1
		ap.MinConfidence = 0.99
		if _, err := ap.Mine(trans); err != nil {
			return false
		}
		support := map[string]int{}
		for _, is := range ap.FrequentItemsets() {
			support[key(is.Items)] = is.Support
		}
		for _, is := range ap.FrequentItemsets() {
			if len(is.Items) < 2 {
				continue
			}
			for skip := range is.Items {
				sub := make([]int, 0, len(is.Items)-1)
				for i, id := range is.Items {
					if i != skip {
						sub = append(sub, id)
					}
				}
				if subSup, ok := support[key(sub)]; !ok || subSup < is.Support {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionsFromDataset(t *testing.T) {
	d := datagen.Weather()
	trans, err := TransactionsFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(trans) != 14 {
		t.Fatalf("transactions = %d", len(trans))
	}
	if trans[0][0] != "outlook=sunny" {
		t.Fatalf("first item = %q", trans[0][0])
	}
	num := datagen.WeatherNumeric()
	if _, err := TransactionsFromDataset(num); err == nil {
		t.Fatal("numeric dataset accepted")
	}
}

func TestWeatherRulesAreSensible(t *testing.T) {
	d := datagen.Weather()
	trans, _ := TransactionsFromDataset(d)
	ap := NewApriori()
	ap.MinSupport = 0.2
	ap.MinConfidence = 0.9
	rules, err := ap.Mine(trans)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules on weather data")
	}
	// The textbook rule: humidity=normal & windy=FALSE => play=yes holds
	// with confidence 1.0 on this data.
	found := false
	for _, r := range rules {
		ante := strings.Join(r.Antecedent, ",")
		cons := strings.Join(r.Consequent, ",")
		if strings.Contains(ante, "humidity=normal") && strings.Contains(ante, "windy=FALSE") &&
			cons == "play=yes" && r.Confidence == 1 {
			found = true
		}
	}
	if !found {
		var got []string
		for _, r := range rules {
			got = append(got, r.String())
		}
		t.Fatalf("textbook weather rule missing; got:\n%s", strings.Join(got, "\n"))
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Antecedent: []string{"a"}, Consequent: []string{"b"},
		Support: 0.5, Confidence: 0.9, Lift: 1.8}
	s := r.String()
	if !strings.Contains(s, "a => b") || !strings.Contains(s, "conf=0.900") {
		t.Fatalf("rule string = %q", s)
	}
}
