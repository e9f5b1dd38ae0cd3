package wire

import (
	"math"
	"math/rand"
	"testing"
)

// randomClusterResult builds a random DMC1 payload for property testing:
// random cluster count, score kind and rows, with occasional noise
// assignments and NaN/Inf score cells.
func randomClusterResult(rng *rand.Rand, rows int) *ClusterResult {
	clusters := 1 + rng.Intn(5)
	kind := [...]string{ScoreNone, ScoreDistance, ScoreResponsibility}[rng.Intn(3)]
	res := &ClusterResult{Clusters: clusters, ScoreKind: kind}
	res.Assignments = make([]int, rows)
	for i := range res.Assignments {
		if rng.Intn(10) == 0 {
			res.Assignments[i] = -1 // noise
			continue
		}
		res.Assignments[i] = rng.Intn(clusters)
	}
	if kind != ScoreNone {
		res.Scores = make([][]float64, clusters)
		for c := range res.Scores {
			col := make([]float64, rows)
			for i := range col {
				switch rng.Intn(12) {
				case 0:
					col[i] = math.NaN()
				case 1:
					col[i] = math.Inf(1)
				default:
					col[i] = rng.NormFloat64()
				}
			}
			res.Scores[c] = col
		}
	}
	return res
}

func TestClusterResultRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		res := randomClusterResult(rng, rng.Intn(40))
		b, err := MarshalClusterResult(res)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := UnmarshalClusterResult(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Clusters != res.Clusters || got.ScoreKind != res.ScoreKind {
			t.Fatalf("trial %d: header %d/%q, want %d/%q",
				trial, got.Clusters, got.ScoreKind, res.Clusters, res.ScoreKind)
		}
		for i, a := range res.Assignments {
			if got.Assignments[i] != a {
				t.Fatalf("trial %d row %d: assignment %d, want %d", trial, i, got.Assignments[i], a)
			}
		}
		if len(got.Scores) != len(res.Scores) {
			t.Fatalf("trial %d: %d score columns, want %d", trial, len(got.Scores), len(res.Scores))
		}
		for c := range res.Scores {
			for i := range res.Scores[c] {
				if math.Float64bits(got.Scores[c][i]) != math.Float64bits(res.Scores[c][i]) {
					t.Fatalf("trial %d score (%d,%d) = %v, want %v",
						trial, c, i, got.Scores[c][i], res.Scores[c][i])
				}
			}
		}
	}
}

func TestClusterResultValidation(t *testing.T) {
	if _, err := MarshalClusterResult(&ClusterResult{
		Clusters:    1,
		Assignments: []int{3},
	}); err == nil {
		t.Error("out-of-range assignment marshalled")
	}
	if _, err := MarshalClusterResult(&ClusterResult{
		Clusters:    2,
		ScoreKind:   ScoreDistance,
		Assignments: []int{0},
		Scores:      [][]float64{{1}},
	}); err == nil {
		t.Error("cluster/score-column count mismatch marshalled")
	}
	if _, err := MarshalClusterResult(&ClusterResult{
		Clusters:    1,
		Assignments: []int{0},
		Scores:      [][]float64{{1}},
	}); err == nil {
		t.Error("score columns without a score kind marshalled")
	}
	if _, err := MarshalClusterResult(&ClusterResult{
		Clusters:    1,
		ScoreKind:   "sqrt", // not a registered kind
		Assignments: []int{0},
		Scores:      [][]float64{{1}},
	}); err == nil {
		t.Error("unknown score kind marshalled")
	}
}

func TestRegressResultRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		vals := make([]float64, rng.Intn(40))
		for i := range vals {
			if rng.Intn(12) == 0 {
				vals[i] = math.NaN()
			} else {
				vals[i] = rng.NormFloat64() * 1e3
			}
		}
		res := &RegressResult{Target: "price", Values: vals}
		b, err := MarshalRegressResult(res)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := UnmarshalRegressResult(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Target != res.Target || len(got.Values) != len(res.Values) {
			t.Fatalf("trial %d: target %q rows %d", trial, got.Target, len(got.Values))
		}
		for i := range vals {
			if math.Float64bits(got.Values[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("trial %d row %d: %v, want %v", trial, i, got.Values[i], vals[i])
			}
		}
	}
}
