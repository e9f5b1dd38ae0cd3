package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStratifiedSplitPreservesDistribution(t *testing.T) {
	d := twoClassSet(t, 100) // exactly 50/50
	train, test, err := StratifiedSplit(d, 0.7, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("StratifiedSplit: %v", err)
	}
	tc := train.ClassCounts()
	if tc[0] != 35 || tc[1] != 35 {
		t.Fatalf("train class counts %v, want perfect stratification", tc)
	}
	ec := test.ClassCounts()
	if ec[0] != 15 || ec[1] != 15 {
		t.Fatalf("test class counts %v", ec)
	}
}

func TestFoldsStratifiedAndComplete(t *testing.T) {
	d := twoClassSet(t, 100)
	folds, err := FoldsView(d, 10, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("FoldsView: %v", err)
	}
	total := 0
	for i, f := range folds {
		total += f.NumInstances()
		if f.NumInstances() != 10 {
			t.Fatalf("fold %d has %d instances", i, f.NumInstances())
		}
		// Stratification: each fold should hold 5 of each class.
		var c0 int
		for j := 0; j < f.NumInstances(); j++ {
			if f.Instance(j).Values[2] == 0 {
				c0++
			}
		}
		if c0 != 5 {
			t.Fatalf("fold %d has %d of class 0", i, c0)
		}
	}
	if total != 100 {
		t.Fatalf("folds cover %d instances", total)
	}
	train, test := TrainTestViewForFold(d, folds, 0)
	if train.NumInstances() != 90 || test.NumInstances() != 10 {
		t.Fatalf("fold-0 shares: %d/%d", train.NumInstances(), test.NumInstances())
	}
	if _, err := FoldsView(d, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := FoldsView(d, 101, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestFoldsProperty(t *testing.T) {
	// For any n >= k >= 2, folds partition the instances exactly.
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 4
		k := int(kRaw)%3 + 2
		d := New("p", NewNumericAttribute("x"), NewNominalAttribute("c", "a", "b"))
		d.ClassIndex = 1
		for i := 0; i < n; i++ {
			d.MustAdd(NewInstance([]float64{float64(i), float64(i % 2)}))
		}
		folds, err := FoldsView(d, k, rand.New(rand.NewSource(int64(n*k))))
		if err != nil {
			return false
		}
		seen := map[*Instance]bool{}
		total := 0
		for _, f := range folds {
			total += f.NumInstances()
			for j := 0; j < f.NumInstances(); j++ {
				in := f.Instance(j)
				if seen[in] {
					return false
				}
				seen[in] = true
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResample(t *testing.T) {
	d := twoClassSet(t, 10)
	r := ResampleView(d, 25, rand.New(rand.NewSource(4)))
	if r.NumInstances() != 25 {
		t.Fatalf("ResampleView size = %d", r.NumInstances())
	}
}
