package attrsel

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/parallel"
)

// Search explores the space of attribute subsets with a subset evaluator.
type Search interface {
	Name() string
	// Search returns the selected attribute columns (class excluded),
	// sorted ascending.
	Search(eval SubsetEvaluator, d *dataset.Dataset) ([]int, error)
}

// candidateColumns lists the selectable columns of d.
func candidateColumns(d *dataset.Dataset) []int {
	var cols []int
	for i, a := range d.Attrs {
		if i != d.ClassIndex && !a.IsString() {
			cols = append(cols, i)
		}
	}
	return cols
}

// Ranking holds a ranked attribute list produced by RankAttributes.
type Ranking struct {
	Columns []int
	Names   []string
	Merits  []float64
}

// RankAttributes scores every candidate attribute with a single-attribute
// evaluator and returns them best-first — the Ranker search. Columns are
// scored across the machine's CPUs; every merit lands in its column's slot
// and the stable sort runs over the same values in the same order, so the
// ranking is identical to a sequential scan.
func RankAttributes(eval AttributeEvaluator, d *dataset.Dataset) (Ranking, error) {
	if err := eval.Prepare(d); err != nil {
		return Ranking{}, err
	}
	cols := candidateColumns(d)
	type scored struct {
		col   int
		merit float64
	}
	ss := make([]scored, len(cols))
	err := parallel.ForEach(context.Background(), len(cols), func(i int) error {
		m, err := eval.Evaluate(cols[i])
		if err != nil {
			return err
		}
		ss[i] = scored{cols[i], m}
		return nil
	})
	if err != nil {
		return Ranking{}, err
	}
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].merit > ss[j].merit })
	r := Ranking{}
	for _, s := range ss {
		r.Columns = append(r.Columns, s.col)
		r.Names = append(r.Names, d.Attrs[s.col].Name)
		r.Merits = append(r.Merits, s.merit)
	}
	return r, nil
}

// evalSubsets scores every candidate subset, fanning the evaluations
// across the machine's CPUs. Each merit lands in its candidate's slot so
// callers reduce in candidate order — a parallel search therefore visits
// improvements in exactly the sequence the sequential loop did, and on
// failure the lowest-indexed error is returned, matching the sequential
// loop's first error.
func evalSubsets(eval SubsetEvaluator, sets [][]int) ([]float64, error) {
	merits := make([]float64, len(sets))
	err := parallel.ForEach(context.Background(), len(sets), func(i int) error {
		m, err := eval.EvaluateSubset(sets[i])
		if err != nil {
			return err
		}
		merits[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return merits, nil
}

// greedyForward adds the best attribute until no addition improves merit.
// Each round's candidate evaluations run in parallel; the winner is
// picked in column order afterwards, so the selected subset is identical
// at any GOMAXPROCS.
type greedyForward struct{}

// Name implements Search.
func (greedyForward) Name() string { return "GreedyStepwise(forward)" }

// Search implements Search.
func (greedyForward) Search(eval SubsetEvaluator, d *dataset.Dataset) ([]int, error) {
	if err := eval.Prepare(d); err != nil {
		return nil, err
	}
	cols := candidateColumns(d)
	in := map[int]bool{}
	var current []int
	best := 0.0
	for {
		var trials [][]int
		for _, c := range cols {
			if in[c] {
				continue
			}
			trials = append(trials, append(append([]int(nil), current...), c))
		}
		merits, err := evalSubsets(eval, trials)
		if err != nil {
			return nil, err
		}
		improved := false
		bestCol, bestMerit := -1, best
		for i, trial := range trials {
			if m := merits[i]; m > bestMerit+1e-12 {
				bestCol, bestMerit = trial[len(trial)-1], m
				improved = true
			}
		}
		if !improved {
			break
		}
		in[bestCol] = true
		current = append(current, bestCol)
		best = bestMerit
	}
	sort.Ints(current)
	return current, nil
}

// greedyBackward starts from the full set and removes attributes while
// removal does not hurt merit. Each round's removal trials run in
// parallel with the pick reduced in index order afterwards, so later
// indices still win ties exactly as the sequential loop's >= comparison
// did.
type greedyBackward struct{}

// Name implements Search.
func (greedyBackward) Name() string { return "GreedyStepwise(backward)" }

// Search implements Search.
func (greedyBackward) Search(eval SubsetEvaluator, d *dataset.Dataset) ([]int, error) {
	if err := eval.Prepare(d); err != nil {
		return nil, err
	}
	current := candidateColumns(d)
	best, err := eval.EvaluateSubset(current)
	if err != nil {
		return nil, err
	}
	for len(current) > 1 {
		trials := make([][]int, len(current))
		for i := range current {
			trial := make([]int, 0, len(current)-1)
			trial = append(trial, current[:i]...)
			trial = append(trial, current[i+1:]...)
			trials[i] = trial
		}
		merits, err := evalSubsets(eval, trials)
		if err != nil {
			return nil, err
		}
		bestIdx, bestMerit := -1, best
		for i := range trials {
			if m := merits[i]; m >= bestMerit-1e-12 {
				bestIdx, bestMerit = i, m
			}
		}
		if bestIdx < 0 {
			break
		}
		current = append(current[:bestIdx], current[bestIdx+1:]...)
		best = bestMerit
	}
	sort.Ints(current)
	return current, nil
}

// BestFirst is greedy forward search with limited backtracking: it keeps an
// open list of expanded subsets and stops after MaxStale non-improving
// expansions (WEKA's default search). The children of each expanded node
// are generated (and marked visited) sequentially, then scored in
// parallel and reduced in column order, so the frontier evolves
// identically at any GOMAXPROCS.
type BestFirst struct {
	MaxStale int
}

// Name implements Search.
func (BestFirst) Name() string { return "BestFirst" }

// Search implements Search.
func (b BestFirst) Search(eval SubsetEvaluator, d *dataset.Dataset) ([]int, error) {
	if err := eval.Prepare(d); err != nil {
		return nil, err
	}
	if b.MaxStale == 0 {
		b.MaxStale = 5
	}
	cols := candidateColumns(d)
	type node struct {
		set   []int
		merit float64
	}
	keyOf := func(set []int) string {
		bts := make([]byte, 0, len(set)*3)
		for _, c := range set {
			bts = appendInt(bts, c)
			bts = append(bts, ',')
		}
		return string(bts)
	}
	visited := map[string]bool{"": true}
	open := []node{{nil, 0}}
	bestSet, bestMerit := []int(nil), 0.0
	stale := 0
	for len(open) > 0 && stale < b.MaxStale {
		// Pop the best open node.
		bi := 0
		for i := range open {
			if open[i].merit > open[bi].merit {
				bi = i
			}
		}
		cur := open[bi]
		open = append(open[:bi], open[bi+1:]...)
		var children [][]int
		for _, c := range cols {
			if containsInt(cur.set, c) {
				continue
			}
			child := append(append([]int(nil), cur.set...), c)
			sort.Ints(child)
			k := keyOf(child)
			if visited[k] {
				continue
			}
			visited[k] = true
			children = append(children, child)
		}
		merits, err := evalSubsets(eval, children)
		if err != nil {
			return nil, err
		}
		improvedBest := false
		for i, child := range children {
			m := merits[i]
			open = append(open, node{child, m})
			if m > bestMerit+1e-12 {
				bestSet, bestMerit = child, m
				improvedBest = true
			}
		}
		if improvedBest {
			stale = 0
		} else {
			stale++
		}
	}
	out := append([]int(nil), bestSet...)
	sort.Ints(out)
	return out, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// randomTrials is how many subsets randomSearch draws.
const randomTrials = 100

// randomSearch samples randomTrials random subsets and keeps the best.
// All trial subsets are drawn from an rng seeded with 0 up front (so the
// random stream is untouched by scheduling), scored in parallel, and
// reduced in trial order — the selected subset is the one the sequential
// scan would have kept.
type randomSearch struct{}

// Name implements Search.
func (randomSearch) Name() string { return "RandomSearch" }

// Search implements Search.
func (randomSearch) Search(eval SubsetEvaluator, d *dataset.Dataset) ([]int, error) {
	if err := eval.Prepare(d); err != nil {
		return nil, err
	}
	cols := candidateColumns(d)
	rng := rand.New(rand.NewSource(0))
	var trials [][]int
	for t := 0; t < randomTrials; t++ {
		var set []int
		for _, c := range cols {
			if rng.Float64() < 0.5 {
				set = append(set, c)
			}
		}
		if len(set) == 0 {
			continue
		}
		trials = append(trials, set)
	}
	merits, err := evalSubsets(eval, trials)
	if err != nil {
		return nil, err
	}
	var bestSet []int
	best := -1.0
	for i, set := range trials {
		if m := merits[i]; m > best {
			best, bestSet = m, set
		}
	}
	sort.Ints(bestSet)
	return bestSet, nil
}

// exhaustive enumerates every non-empty subset (guarded to <= 20 columns).
// Masks are scored in parallel in fixed-size chunks and reduced in
// ascending mask order, preserving the sequential tie-break (equal merit
// keeps the earlier, smaller subset) while bounding memory to one chunk
// of candidate slices.
type exhaustive struct{}

// Name implements Search.
func (exhaustive) Name() string { return "Exhaustive" }

// Search implements Search.
func (exhaustive) Search(eval SubsetEvaluator, d *dataset.Dataset) ([]int, error) {
	if err := eval.Prepare(d); err != nil {
		return nil, err
	}
	cols := candidateColumns(d)
	if len(cols) > 20 {
		return nil, fmt.Errorf("attrsel: exhaustive search over %d attributes is infeasible", len(cols))
	}
	const chunk = 4096
	var bestSet []int
	best := -1.0
	for lo := 1; lo < 1<<len(cols); lo += chunk {
		hi := lo + chunk
		if max := 1 << len(cols); hi > max {
			hi = max
		}
		sets := make([][]int, 0, hi-lo)
		for mask := lo; mask < hi; mask++ {
			var set []int
			for i, c := range cols {
				if mask&(1<<i) != 0 {
					set = append(set, c)
				}
			}
			sets = append(sets, set)
		}
		merits, err := evalSubsets(eval, sets)
		if err != nil {
			return nil, err
		}
		for i, set := range sets {
			if m := merits[i]; m > best || (m == best && len(set) < len(bestSet)) {
				best, bestSet = m, set
			}
		}
	}
	sort.Ints(bestSet)
	return bestSet, nil
}

// GeneticSearch is a simple generational GA over attribute bitmasks with
// tournament selection, uniform crossover and bit-flip mutation — the
// "genetic search operator" of §1 used in §5.3 to automate attribute
// selection.
//
// Each generation's genomes are bred from the seeded rng and then scored
// in breeding order. Scoring runs on the caller's goroutine: a fan-out
// over one generation costs about what it saves, and an evaluator that
// fans out itself (WrapperSubset's cross-validation) still can.
type GeneticSearch struct {
	Population  int
	Generations int
	Seed        int64
}

// A GeneticSearch child is a uniform crossover of its parents with
// probability crossoverProb (else a copy of the first), and then has each
// bit flipped with probability mutateProb.
const (
	crossoverProb = 0.6
	mutateProb    = 0.033
)

// Name implements Search.
func (GeneticSearch) Name() string { return "GeneticSearch" }

// Search implements Search.
func (g GeneticSearch) Search(eval SubsetEvaluator, d *dataset.Dataset) ([]int, error) {
	if err := eval.Prepare(d); err != nil {
		return nil, err
	}
	if g.Population == 0 {
		g.Population = 20
	}
	if g.Generations == 0 {
		g.Generations = 20
	}
	cols := candidateColumns(d)
	n := len(cols)
	if n == 0 {
		return nil, fmt.Errorf("attrsel: no candidate attributes")
	}
	rng := rand.New(rand.NewSource(g.Seed))
	type genome struct {
		bits []bool
		fit  float64
	}
	decode := func(bits []bool) []int {
		var set []int
		for i, b := range bits {
			if b {
				set = append(set, cols[i])
			}
		}
		return set
	}
	// scoreAll evaluates a batch of genomes in breeding order, writing
	// each fitness into its genome's slot (an empty subset scores 0).
	scoreAll := func(batch []genome) error {
		for i := range batch {
			if set := decode(batch[i].bits); len(set) > 0 {
				f, err := eval.EvaluateSubset(set)
				if err != nil {
					return err
				}
				batch[i].fit = f
			}
		}
		return nil
	}
	pop := make([]genome, g.Population)
	for i := range pop {
		bits := make([]bool, n)
		for j := range bits {
			bits[j] = rng.Float64() < 0.5
		}
		pop[i] = genome{bits, 0}
	}
	if err := scoreAll(pop); err != nil {
		return nil, err
	}
	bestBits, bestFit := append([]bool(nil), pop[0].bits...), pop[0].fit
	for _, p := range pop {
		if p.fit > bestFit {
			bestBits, bestFit = append([]bool(nil), p.bits...), p.fit
		}
	}
	tournament := func() genome {
		a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		if a.fit >= b.fit {
			return a
		}
		return b
	}
	for gen := 0; gen < g.Generations; gen++ {
		next := make([]genome, 0, g.Population)
		// Elitism: carry the best genome forward unchanged (its fitness is
		// already known, so it is not re-scored).
		next = append(next, genome{append([]bool(nil), bestBits...), bestFit})
		for len(next) < g.Population {
			p1, p2 := tournament(), tournament()
			child := make([]bool, n)
			if rng.Float64() < crossoverProb {
				for j := range child {
					if rng.Float64() < 0.5 {
						child[j] = p1.bits[j]
					} else {
						child[j] = p2.bits[j]
					}
				}
			} else {
				copy(child, p1.bits)
			}
			for j := range child {
				if rng.Float64() < mutateProb {
					child[j] = !child[j]
				}
			}
			next = append(next, genome{child, 0})
		}
		if err := scoreAll(next[1:]); err != nil {
			return nil, err
		}
		for _, c := range next[1:] {
			if c.fit > bestFit {
				bestBits, bestFit = append([]bool(nil), c.bits...), c.fit
			}
		}
		pop = next
	}
	out := decode(bestBits)
	sort.Ints(out)
	return out, nil
}

// Approaches enumerates the named evaluator×search combinations shipped by
// the toolkit, reproducing (and exceeding) the paper's "20 different
// approaches" to attribute search and selection.
func Approaches() []string {
	evaluators := []string{"CfsSubset", "ConsistencySubset", "WrapperSubset",
		"InfoGain+mean", "GainRatio+mean", "SymmetricalUncertainty+mean", "ChiSquared+mean"}
	searches := []string{"BestFirst", "GreedyStepwise(forward)", "GreedyStepwise(backward)",
		"GeneticSearch", "RandomSearch", "Exhaustive"}
	var out []string
	for _, e := range evaluators {
		for _, s := range searches {
			out = append(out, e+"/"+s)
		}
	}
	for _, e := range []string{"InfoGain", "GainRatio", "SymmetricalUncertainty",
		"ChiSquared", "OneRAccuracy", "Correlation", "ReliefF"} {
		out = append(out, e+"/Ranker")
	}
	return out
}

// NewSubsetEvaluator constructs a subset evaluator by approach name.
func NewSubsetEvaluator(name string) (SubsetEvaluator, error) {
	switch name {
	case "CfsSubset":
		return &CFS{}, nil
	case "ConsistencySubset":
		return &consistency{}, nil
	case "WrapperSubset":
		return &wrapper{}, nil
	case "InfoGain+mean":
		return &rankerAdapter{Inner: &infoGain{}}, nil
	case "GainRatio+mean":
		return &rankerAdapter{Inner: &gainRatio{}}, nil
	case "SymmetricalUncertainty+mean":
		return &rankerAdapter{Inner: &symmetricalUncertainty{}}, nil
	case "ChiSquared+mean":
		return &rankerAdapter{Inner: &chiSquared{}}, nil
	default:
		return nil, fmt.Errorf("attrsel: unknown subset evaluator %q", name)
	}
}

// NewAttributeEvaluator constructs a single-attribute evaluator by name.
func NewAttributeEvaluator(name string) (AttributeEvaluator, error) {
	switch name {
	case "InfoGain":
		return &infoGain{}, nil
	case "GainRatio":
		return &gainRatio{}, nil
	case "SymmetricalUncertainty":
		return &symmetricalUncertainty{}, nil
	case "ChiSquared":
		return &chiSquared{}, nil
	case "OneRAccuracy":
		return &oneRAccuracy{}, nil
	case "Correlation":
		return &correlation{}, nil
	case "ReliefF":
		return &reliefF{}, nil
	default:
		return nil, fmt.Errorf("attrsel: unknown attribute evaluator %q", name)
	}
}

// NewSearch constructs a search strategy by name.
func NewSearch(name string) (Search, error) {
	switch name {
	case "BestFirst":
		return BestFirst{}, nil
	case "GreedyStepwise(forward)":
		return greedyForward{}, nil
	case "GreedyStepwise(backward)":
		return greedyBackward{}, nil
	case "GeneticSearch":
		return GeneticSearch{}, nil
	case "RandomSearch":
		return randomSearch{}, nil
	case "Exhaustive":
		return exhaustive{}, nil
	default:
		return nil, fmt.Errorf("attrsel: unknown search %q", name)
	}
}
