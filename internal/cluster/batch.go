package cluster

import (
	"fmt"
	"math"

	"repro/internal/dataset"
)

// ScoreKind names what a batch assignment's per-cluster score columns
// measure.
type ScoreKind int

const (
	// scoreNone means the assigner produces no score columns (the row-path
	// fallback, and algorithms without a natural per-cluster score).
	scoreNone ScoreKind = iota
	// scoreDistance marks euclidean distances to each centroid.
	scoreDistance
	// scoreResponsibility marks posterior component probabilities.
	scoreResponsibility
)

// String returns the wire-level name of the kind ("", "distance",
// "responsibility") — the vocabulary internal/wire's DMC1 block encodes.
func (k ScoreKind) String() string {
	switch k {
	case scoreDistance:
		return "distance"
	case scoreResponsibility:
		return "responsibility"
	default:
		return ""
	}
}

// batchAssigner marks clusterers with a columnar assignment kernel.
// AssignBatch must produce assignments bit-identical to calling Assign on
// every row — the batch path is an optimisation, never a different model
// — which the column-outer loops below achieve by preserving the row
// path's per-(row,cluster) float accumulation order exactly.
type batchAssigner interface {
	Clusterer
	// AssignBatch assigns every row of d in one columnar pass, returning
	// per-row cluster indices plus one score column per cluster
	// (scores[c][i] is row i's score against cluster c).
	AssignBatch(d *dataset.Dataset) (assign []int, scores [][]float64, kind ScoreKind, err error)
}

// rowAssigner marks the clusterers without a batch kernel (Cobweb,
// DBSCAN); fittedCols names the columns their Assign reads.
type rowAssigner interface {
	fittedCols() []int
}

// AssignAll assigns every row of d with c: the columnar batch path when c
// implements batchAssigner, otherwise the per-row Assign loop (which
// yields no score columns). Either way a block narrower than the fitted
// schema is a dataset.ErrWidth error.
func AssignAll(c Clusterer, d *dataset.Dataset) ([]int, [][]float64, ScoreKind, error) {
	if ba, ok := c.(batchAssigner); ok {
		return ba.AssignBatch(d)
	}
	if ra, ok := c.(rowAssigner); ok {
		if err := checkBatchCols(c.Name(), ra.fittedCols(), d); err != nil {
			return nil, nil, scoreNone, err
		}
	}
	assign, err := Assignments(c, d)
	if err != nil {
		return nil, nil, scoreNone, err
	}
	return assign, nil, scoreNone, nil
}

// checkBatchCols verifies the fitted feature columns exist in the batch
// dataset — a batch decoded from the wire can carry any schema.
func checkBatchCols(name string, cols []int, d *dataset.Dataset) error {
	for _, col := range cols {
		if col >= d.NumAttributes() {
			return fmt.Errorf("cluster: %w: %s was fitted on column %d; batch has only %d attributes",
				dataset.ErrWidth, name, col, d.NumAttributes())
		}
	}
	return nil
}

// centroidAssignBatch is the shared columnar kernel for centroid-based
// assigners (k-means, farthest-first). For each centroid it accumulates
// squared differences column-outer over the dataset's column mirror —
// per (row, centroid) the additions happen in the same ascending-column
// order as euclidean's row loop, so the distances, and therefore the
// strict-< argmin tie-breaks, are bit-identical to the row path.
func centroidAssignBatch(name string, d *dataset.Dataset, centroids [][]float64, cols []int) ([]int, [][]float64, error) {
	if err := checkBatchCols(name, cols, d); err != nil {
		return nil, nil, err
	}
	rows := d.NumInstances()
	dcols := d.Columns()
	scores := make([][]float64, len(centroids))
	for c, cent := range centroids {
		acc := make([]float64, rows)
		for j, col := range cols {
			cj := cent[j]
			for i, v := range dcols[col] {
				if dataset.IsMissing(v) {
					continue
				}
				diff := v - cj
				acc[i] += diff * diff
			}
		}
		for i := range acc {
			acc[i] = math.Sqrt(acc[i])
		}
		scores[c] = acc
	}
	assign := make([]int, rows)
	for i := range assign {
		best, bestD := 0, math.Inf(1)
		for c := range scores {
			if dd := scores[c][i]; dd < bestD {
				best, bestD = c, dd
			}
		}
		assign[i] = best
	}
	return assign, scores, nil
}

// AssignBatch implements batchAssigner; the score columns are euclidean
// centroid distances.
func (km *KMeans) AssignBatch(d *dataset.Dataset) ([]int, [][]float64, ScoreKind, error) {
	if km.Centroids == nil {
		return nil, nil, scoreNone, fmt.Errorf("cluster: SimpleKMeans is unbuilt")
	}
	assign, scores, err := centroidAssignBatch("SimpleKMeans", d, km.Centroids, km.cols)
	if err != nil {
		return nil, nil, scoreNone, err
	}
	return assign, scores, scoreDistance, nil
}

// AssignBatch implements batchAssigner; the score columns are euclidean
// centroid distances.
func (ff *FarthestFirst) AssignBatch(d *dataset.Dataset) ([]int, [][]float64, ScoreKind, error) {
	if ff.Centroids == nil {
		return nil, nil, scoreNone, fmt.Errorf("cluster: FarthestFirst is unbuilt")
	}
	assign, scores, err := centroidAssignBatch("FarthestFirst", d, ff.Centroids, ff.cols)
	if err != nil {
		return nil, nil, scoreNone, err
	}
	return assign, scores, scoreDistance, nil
}

// AssignBatch implements batchAssigner; the score columns are euclidean
// distances to the dendrogram's cut centroids.
func (h *Hierarchical) AssignBatch(d *dataset.Dataset) ([]int, [][]float64, ScoreKind, error) {
	if h.Centroids == nil {
		return nil, nil, scoreNone, fmt.Errorf("cluster: Hierarchical is unbuilt")
	}
	assign, scores, err := centroidAssignBatch("Hierarchical", d, h.Centroids, h.cols)
	if err != nil {
		return nil, nil, scoreNone, err
	}
	return assign, scores, scoreDistance, nil
}

// AssignBatch implements batchAssigner; the score columns are the
// mixture responsibilities (posterior component probabilities). The
// per-component log joint accumulates column-outer in the same order as
// logGauss's row loop, so the strict-> argmax matches Assign bit for bit.
func (em *EM) AssignBatch(d *dataset.Dataset) ([]int, [][]float64, ScoreKind, error) {
	if em.means == nil {
		return nil, nil, scoreNone, fmt.Errorf("cluster: EM is unbuilt")
	}
	if err := checkBatchCols("EM", em.cols, d); err != nil {
		return nil, nil, scoreNone, err
	}
	rows := d.NumInstances()
	dcols := d.Columns()
	joint := make([][]float64, em.K)
	for c := 0; c < em.K; c++ {
		acc := make([]float64, rows)
		for j, col := range em.cols {
			variance := em.vars[c][j]
			mean := em.means[c][j]
			base := -0.5 * math.Log(2*math.Pi*variance)
			for i, v := range dcols[col] {
				if dataset.IsMissing(v) {
					continue
				}
				diff := v - mean
				acc[i] += base - diff*diff/(2*variance)
			}
		}
		logW := math.Log(em.weights[c] + 1e-300)
		for i := range acc {
			acc[i] = logW + acc[i]
		}
		joint[c] = acc
	}
	assign := make([]int, rows)
	resp := make([][]float64, em.K)
	for c := range resp {
		resp[c] = make([]float64, rows)
	}
	for i := 0; i < rows; i++ {
		best, bestV := 0, math.Inf(-1)
		maxLog := math.Inf(-1)
		for c := 0; c < em.K; c++ {
			v := joint[c][i]
			if v > bestV {
				best, bestV = c, v
			}
			if v > maxLog {
				maxLog = v
			}
		}
		assign[i] = best
		var sum float64
		for c := 0; c < em.K; c++ {
			resp[c][i] = math.Exp(joint[c][i] - maxLog)
			sum += resp[c][i]
		}
		for c := 0; c < em.K; c++ {
			resp[c][i] /= sum
		}
	}
	return assign, resp, scoreResponsibility, nil
}
