package classify

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// refDistribution is the oracle IBk's kernel is held to: the full squared
// distance to every case with a known class, computed term by term from
// ranges the oracle finds itself, a stable sort on (squared distance,
// case index) with NaN after every number, then a vote over the first k.
func refDistribution(train *dataset.Dataset, k int, weighted bool, q []float64) []float64 {
	ci, m := train.ClassIndex, train.NumAttributes()
	var rows [][]float64
	for _, in := range train.Instances {
		if !dataset.IsMissing(in.Values[ci]) {
			rows = append(rows, in.Values)
		}
	}
	lo, hi := make([]float64, m), make([]float64, m)
	for col := range lo {
		lo[col], hi[col] = math.Inf(1), math.Inf(-1)
	}
	for _, r := range rows {
		for col, a := range train.Attrs {
			if v := r[col]; a.IsNumeric() && !dataset.IsMissing(v) {
				lo[col], hi[col] = math.Min(lo[col], v), math.Max(hi[col], v)
			}
		}
	}
	type nb struct {
		sq  float64
		cls int
	}
	nbs := make([]nb, len(rows))
	for j, r := range rows {
		var s float64
		for col, a := range train.Attrs {
			if col == ci {
				continue
			}
			qv, cv := q[col], r[col]
			switch {
			case dataset.IsMissing(qv) || dataset.IsMissing(cv):
				s++
			case a.IsNumeric():
				span := hi[col] - lo[col]
				if span <= 0 {
					continue
				}
				diff := (qv - cv) / span
				s += diff * diff
			default:
				if qv != cv {
					s++
				}
			}
		}
		nbs[j] = nb{s, int(r[ci])}
	}
	sort.SliceStable(nbs, func(a, b int) bool {
		x, y := nbs[a].sq, nbs[b].sq
		return x < y || (math.IsNaN(y) && !math.IsNaN(x))
	})
	out := make([]float64, train.NumClasses())
	for i := 0; i < k && i < len(nbs); i++ {
		w := 1.0
		if weighted {
			w = 1 / (math.Sqrt(nbs[i].sq) + 1e-9)
		}
		out[nbs[i].cls] += w
	}
	return normalize(out)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkIBk holds Distribution, DistributionBatch (on a column-first copy
// of queries, the shape a decoded dmb1 block has) and the reference to
// bit-identical answers on every row of queries.
func checkIBk(t *testing.T, c *IBk, train, queries *dataset.Dataset) {
	t.Helper()
	checkIBkWant(t, c, queries, refDistributions(train, c.K, c.DistanceWeight, queries))
}

// refDistributions is refDistribution for every row of queries.
func refDistributions(train *dataset.Dataset, k int, weighted bool, queries *dataset.Dataset) [][]float64 {
	want := make([][]float64, queries.NumInstances())
	for i, in := range queries.Instances {
		want[i] = refDistribution(train, k, weighted, in.Values)
	}
	return want
}

// checkIBkWant is checkIBk against reference answers computed once.
func checkIBkWant(t *testing.T, c *IBk, queries *dataset.Dataset, wants [][]float64) {
	t.Helper()
	qc, err := dataset.FromColumns(queries.Relation, queries.Attrs, queries.ClassIndex, queries.Columns(), nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.DistributionBatch(qc)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range queries.Instances {
		want := wants[i]
		row, err := c.Distribution(in)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(row, want) || !sameBits(batch[i], want) {
			t.Fatalf("k=%d dw=%v row %d %v: row %v batch %v reference %v",
				c.K, c.DistanceWeight, i, in.Values, row, batch[i], want)
		}
	}
}

// withCells returns a copy of d whose cells at (row, col) are set to v.
func withCells(d *dataset.Dataset, v float64, cells ...[2]int) *dataset.Dataset {
	c := d.Clone()
	for _, rc := range cells {
		c.Instances[rc[0]].Values[rc[1]] = v
	}
	c.InvalidateColumns()
	return c
}

// perturbed appends to d's rows copies of its first rows with one cell
// set to NaN, and each numeric cell of the first row set to ±Inf.
func perturbed(d *dataset.Dataset) *dataset.Dataset {
	q := d.Clone()
	for col, a := range d.Attrs {
		if col == d.ClassIndex {
			continue
		}
		vals := []float64{dataset.Missing}
		if a.IsNumeric() {
			vals = append(vals, math.Inf(1), math.Inf(-1))
		}
		for _, v := range vals {
			in := d.Instances[col%d.NumInstances()].Clone()
			in.Values[col] = v
			q.Instances = append(q.Instances, in)
		}
	}
	q.InvalidateColumns()
	return q
}

func TestIBkKernelMatchesReference(t *testing.T) {
	gauss := datagen.GaussianClusters(3, 90, 4, 2.0, 5)
	zeroSpan := gauss.Clone()
	for _, in := range zeroSpan.Instances {
		in.Values[1] = 1.5
	}
	zeroSpan.InvalidateColumns()
	trains := map[string]*dataset.Dataset{
		"BreastCancer":     datagen.BreastCancer(),
		"ContactLenses":    datagen.ContactLenses(),
		"Weather":          datagen.Weather(),
		"GaussianClusters": gauss,
		"ZeroSpanColumn":   zeroSpan,
		"NaNCases":         withCells(gauss, dataset.Missing, [2]int{0, 0}, [2]int{3, 2}, [2]int{7, 0}, [2]int{7, 1}),
		"PlusInfCase":      withCells(gauss, math.Inf(1), [2]int{2, 0}),
		"MinusInfCase":     withCells(gauss, math.Inf(-1), [2]int{4, 3}),
		"InfBothEnds":      withCells(withCells(gauss, math.Inf(1), [2]int{1, 2}), math.Inf(-1), [2]int{5, 2}),
		"OnlyInfInColumn":  withCells(gauss.Clone(), math.Inf(1), allRows(gauss, 0)...),
	}
	for name, train := range trains {
		queries := perturbed(train)
		for _, k := range []int{1, 3, 5, train.NumInstances() + 2} {
			for _, dw := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/k=%d/dw=%v", name, k, dw), func(t *testing.T) {
					c := &IBk{K: k, DistanceWeight: dw}
					if err := c.Train(train); err != nil {
						t.Fatal(err)
					}
					checkIBk(t, c, train, queries)
				})
			}
		}
	}
}

// FuzzIBkNearest decodes arbitrary bytes into a small case base and query
// block — cells from a palette with NaN, ±Inf and many repeats, classes
// that may be missing, k up to above the case count — indexes it with
// leaves of 1 to 4 cases, so that the bounds prune, adds a tail of cases
// after the index, and holds both scoring paths to the reference. Layout:
// attributes-1 (mod 4); a byte of nominal bit mask (low 4 bits), leaf-1
// (next 2) and tail cases (top 2); k-1 (mod 9); weighting bit + cases-1
// (mod 64) in the high bits; then cells row by row. What is left after
// the cases is queries.
func FuzzIBkNearest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nAttr, mask, k := 1+int(data[0]%4), data[1], 1+int(data[2]%9)
		leaf, tail := 1+int(data[1]>>4&3), int(data[1]>>6)
		weighted, nCases := data[3]&1 == 1, 1+int(data[3]>>1)%64
		data = data[4:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		attrs := make([]*dataset.Attribute, nAttr+1)
		for a := 0; a < nAttr; a++ {
			if mask>>a&1 == 1 {
				attrs[a] = dataset.NewNominalAttribute(fmt.Sprint("n", a), "x", "y", "z")
			} else {
				attrs[a] = dataset.NewNumericAttribute(fmt.Sprint("v", a))
			}
		}
		attrs[nAttr] = dataset.NewNominalAttribute("class", "p", "q")
		cell := func(a *dataset.Attribute, b byte) float64 {
			switch {
			case b >= 0xfd && a.IsNumeric():
				return []float64{dataset.Missing, math.Inf(1), math.Inf(-1)}[b-0xfd]
			case b >= 0xfd:
				return dataset.Missing
			case a.IsNumeric():
				return float64(int8(b)) / 8
			}
			return float64(int(b) % a.NumValues())
		}
		row := func(class float64) []float64 {
			r := make([]float64, nAttr+1)
			for a := 0; a < nAttr; a++ {
				r[a] = cell(attrs[a], next())
			}
			r[nAttr] = class
			return r
		}
		train := dataset.New("fuzz", attrs...)
		train.ClassIndex = nAttr
		for i := 0; i < nCases; i++ {
			r := row(0)
			if b := next(); b >= 0xf0 {
				r[nAttr] = dataset.Missing
			} else {
				r[nAttr] = float64(b % 2)
			}
			train.MustAdd(dataset.NewInstance(r))
		}
		queries := train.CloneSchema()
		for len(data) > 0 && queries.NumInstances() < 16 {
			queries.MustAdd(dataset.NewInstance(row(dataset.Missing)))
		}
		if queries.NumInstances() == 0 {
			queries.MustAdd(dataset.NewInstance(row(dataset.Missing)))
		}
		head := train.Clone()
		head.Instances = head.Instances[:max(1, nCases-tail)]
		c := &IBk{K: k, DistanceWeight: weighted}
		if err := c.Train(head); err != nil {
			return // every case has a missing class
		}
		c.index(leaf)
		for _, in := range train.Instances[head.NumInstances():] {
			if err := c.Update(in); err != nil {
				t.Fatal(err)
			}
		}
		checkIBk(t, c, train, queries)
	})
}

// TestIBkPrunedMatchesReference holds TestIBkKernelMatchesReference's case
// bases to the reference through indexes with leaves of 1, 2 and 32
// cases, so that the bounds prune, both over the whole case base and with
// its last third added by Update after the index was built, as an
// unindexed tail.
func TestIBkPrunedMatchesReference(t *testing.T) {
	gauss := datagen.GaussianClusters(3, 90, 4, 2.0, 5)
	zeroSpan := gauss.Clone()
	for _, in := range zeroSpan.Instances {
		in.Values[1] = 1.5
	}
	zeroSpan.InvalidateColumns()
	trains := map[string]*dataset.Dataset{
		"BreastCancer":     datagen.BreastCancer(),
		"ContactLenses":    datagen.ContactLenses(),
		"Weather":          datagen.Weather(),
		"GaussianClusters": gauss,
		"ZeroSpanColumn":   zeroSpan,
		"NaNCases":         withCells(gauss, dataset.Missing, [2]int{0, 0}, [2]int{3, 2}, [2]int{7, 0}, [2]int{7, 1}),
		"PlusInfCase":      withCells(gauss, math.Inf(1), [2]int{2, 0}),
		"MinusInfCase":     withCells(gauss, math.Inf(-1), [2]int{4, 3}),
		"InfBothEnds":      withCells(withCells(gauss, math.Inf(1), [2]int{1, 2}), math.Inf(-1), [2]int{5, 2}),
		"OnlyInfInColumn":  withCells(gauss.Clone(), math.Inf(1), allRows(gauss, 0)...),
	}
	for name, train := range trains {
		// The first 40 cases and their perturbations query each base,
		// which keeps the test short enough to repeat under -race.
		head, first := train.Clone(), train.Clone()
		head.Instances = head.Instances[:2*train.NumInstances()/3]
		first.Instances = first.Instances[:min(40, train.NumInstances())]
		queries := perturbed(first)
		// k above the case count is left out: best never fills, so
		// nothing can be pruned.
		for _, k := range []int{1, 3, 5} {
			for _, dw := range []bool{false, true} {
				want := refDistributions(train, k, dw, queries)
				for _, leaf := range []int{1, 2, 32} {
					t.Run(fmt.Sprintf("%s/k=%d/dw=%v/leaf=%d", name, k, dw, leaf), func(t *testing.T) {
						whole, tailed := &IBk{K: k, DistanceWeight: dw}, &IBk{K: k, DistanceWeight: dw}
						if err := whole.Train(train); err != nil {
							t.Fatal(err)
						}
						if err := tailed.Train(head); err != nil {
							t.Fatal(err)
						}
						whole.index(leaf)
						tailed.index(leaf)
						for _, in := range train.Instances[head.NumInstances():] {
							if err := tailed.Update(in); err != nil {
								t.Fatal(err)
							}
						}
						checkIBkWant(t, whole, queries, want)
						checkIBkWant(t, tailed, queries, want)
					})
				}
			}
		}
	}
}

func allRows(d *dataset.Dataset, col int) [][2]int {
	cells := make([][2]int, d.NumInstances())
	for i := range cells {
		cells[i] = [2]int{i, col}
	}
	return cells
}

func TestIBkOptions(t *testing.T) {
	var names []string
	for _, o := range (&IBk{}).Options() {
		names = append(names, o.Name)
	}
	if fmt.Sprint(names) != "[k distanceWeighting]" {
		t.Fatalf("IBk options = %v", names)
	}
}

// TestIBkConcurrentScoring scores one trained model from four goroutines
// on both paths; run under -race it proves the read path writes nothing
// shared.
func TestIBkConcurrentScoring(t *testing.T) {
	train := datagen.GaussianClusters(4, 400, 8, 2.0, 3)
	q := datagen.GaussianClusters(4, 64, 8, 2.0, 4)
	c := &IBk{K: 5, DistanceWeight: true}
	if err := c.Train(train); err != nil {
		t.Fatal(err)
	}
	// This first call also builds q's column cache before q is shared.
	_, want, err := PredictBatch(c, q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				_, got, err := PredictBatch(c, q)
				if err != nil {
					t.Error(err)
					return
				}
				for i, in := range q.Instances {
					row, err := c.Distribution(in)
					if err != nil {
						t.Error(err)
						return
					}
					if !sameBits(got[i], want[i]) || !sameBits(row, want[i]) {
						t.Errorf("row %d diverged under concurrency", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestIBkUpdateVisibleToBothPaths adds cases after Train, and through an
// updateable feed that never calls Train, and checks both paths see them.
func TestIBkUpdateVisibleToBothPaths(t *testing.T) {
	full := datagen.GaussianClusters(3, 60, 3, 2.0, 9)
	head := full.Clone()
	head.Instances = head.Instances[:40]
	head.InvalidateColumns()

	trained := &IBk{K: 3}
	if err := trained.Train(head); err != nil {
		t.Fatal(err)
	}
	fed := &IBk{K: 3}
	if err := fed.Begin(full); err != nil {
		t.Fatal(err)
	}
	for i, in := range full.Instances {
		if i >= 40 {
			if err := trained.Update(in); err != nil {
				t.Fatal(err)
			}
		}
		if err := fed.Update(in); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []*IBk{trained, fed} {
		if len(c.cls) != full.NumInstances() {
			t.Fatalf("NumCases = %d, want %d", len(c.cls), full.NumInstances())
		}
		checkIBk(t, c, full, perturbed(full))
	}
}

// TestIBkOwnsItsCaseBase: the model copies cases in, so a caller reusing
// or editing its training set afterwards cannot change its answers.
func TestIBkOwnsItsCaseBase(t *testing.T) {
	train := datagen.GaussianClusters(3, 60, 3, 2.0, 11)
	q := datagen.GaussianClusters(3, 30, 3, 2.0, 12)
	c := &IBk{K: 3, DistanceWeight: true}
	if err := c.Train(train); err != nil {
		t.Fatal(err)
	}
	_, before, err := PredictBatch(c, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range train.Instances {
		for col := range in.Values {
			if col != train.ClassIndex {
				in.Values[col] = -in.Values[col]
			}
		}
		in.Values[train.ClassIndex] = 0
	}
	_, after, err := PredictBatch(c, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if !sameBits(before[i], after[i]) {
			t.Fatalf("row %d changed after the training set was edited: %v -> %v", i, before[i], after[i])
		}
	}
}

// TestIBkBatchAllocs bounds DistributionBatch's allocations by the block,
// not the case base: at most rows+16 objects, and the same bytes per call
// whether the model holds 400 cases or 4000.
func TestIBkBatchAllocs(t *testing.T) {
	qd := datagen.GaussianClusters(4, 32, 16, 3.0, 2)
	qc, err := dataset.FromColumns(qd.Relation, qd.Attrs, qd.ClassIndex, qd.Columns(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bytesPerCall := func(cases int) uint64 {
		c := &IBk{K: 5}
		if err := c.Train(datagen.GaussianClusters(4, cases, 16, 3.0, 1)); err != nil {
			t.Fatal(err)
		}
		score := func() {
			if _, err := c.DistributionBatch(qc); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(20, score); n > float64(qc.NumInstances()+16) {
			t.Fatalf("%d cases: %v allocations per call, want <= %d", cases, n, qc.NumInstances()+16)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			score()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 20
	}
	small, large := bytesPerCall(400), bytesPerCall(4000)
	if large > small+1024 {
		t.Fatalf("bytes per call grow with the case base: %d at 400 cases, %d at 4000", small, large)
	}
}
