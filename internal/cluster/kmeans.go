package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/algo"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// KMeans is Lloyd's algorithm with k-means++ seeding over the numeric
// attributes. The per-instance assignment scan runs in parallel with
// index-addressed writes, so the fit is bit-identical at any GOMAXPROCS
// (centroid recomputation stays sequential to preserve float
// accumulation order).
type KMeans struct {
	K       int
	MaxIter int
	Seed    int64

	cols      []int
	Centroids [][]float64
}

func init() {
	register("SimpleKMeans", func() Clusterer { return &KMeans{K: 2, MaxIter: 100, Seed: 1} })
}

// Name implements Clusterer.
func (km *KMeans) Name() string { return "SimpleKMeans" }

// Options implements Parameterized.
func (km *KMeans) Options() []option {
	return []option{
		algo.Int("k", "number of clusters", &km.K, 1).Require(),
		algo.Int("maxIterations", "iteration cap", &km.MaxIter, 1),
		algo.Seed("seed", "k-means++ seeding RNG seed", &km.Seed),
	}
}

// SetOption implements Parameterized.
func (km *KMeans) SetOption(name, value string) error { return Registry.Set(km, name, value) }

// Build implements Clusterer.
func (km *KMeans) Build(d *dataset.Dataset) error {
	return km.BuildContext(context.Background(), d)
}

// BuildContext implements contextBuilder: the fit checks ctx between
// iterations and inside the assignment scan.
func (km *KMeans) BuildContext(ctx context.Context, d *dataset.Dataset) error {
	cols, err := numericColumns(d)
	if err != nil {
		return err
	}
	if d.NumInstances() < km.K {
		return fmt.Errorf("cluster: %d instances < k=%d", d.NumInstances(), km.K)
	}
	km.cols = cols
	rng := rand.New(rand.NewSource(km.Seed))
	km.Centroids = km.seedPlusPlus(d, rng)
	assign := make([]int, d.NumInstances())
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < km.MaxIter; iter++ {
		// Each instance's nearest centroid depends only on the current
		// centroids, so the scan parallelises with index-addressed writes;
		// the changed flag is an order-independent OR across workers.
		var changedFlag atomic.Bool
		err := parallel.ForEach(ctx, d.NumInstances(), func(i int) error {
			best := nearestCentroid(d.Instances[i].Values, km.Centroids, cols)
			if assign[i] != best {
				assign[i] = best
				changedFlag.Store(true)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !changedFlag.Load() {
			break
		}
		// Recompute centroids.
		for c := range km.Centroids {
			for j := range km.Centroids[c] {
				km.Centroids[c][j] = 0
			}
		}
		cnt := make([]float64, km.K)
		for i, in := range d.Instances {
			c := assign[i]
			cnt[c]++
			for j, col := range cols {
				if !dataset.IsMissing(in.Values[col]) {
					km.Centroids[c][j] += in.Values[col]
				}
			}
		}
		for c := range km.Centroids {
			if cnt[c] == 0 {
				// Re-seed an empty cluster at a random instance.
				in := d.Instances[rng.Intn(d.NumInstances())]
				for j, col := range cols {
					if !dataset.IsMissing(in.Values[col]) {
						km.Centroids[c][j] = in.Values[col]
					}
				}
				continue
			}
			for j := range km.Centroids[c] {
				km.Centroids[c][j] /= cnt[c]
			}
		}
	}
	return nil
}

// seedPlusPlus performs k-means++ centroid initialisation.
func (km *KMeans) seedPlusPlus(d *dataset.Dataset, rng *rand.Rand) [][]float64 {
	cents := make([][]float64, 0, km.K)
	pick := func(i int) []float64 {
		c := make([]float64, len(km.cols))
		for j, col := range km.cols {
			v := d.Instances[i].Values[col]
			if !dataset.IsMissing(v) {
				c[j] = v
			}
		}
		return c
	}
	cents = append(cents, pick(rng.Intn(d.NumInstances())))
	dist2 := make([]float64, d.NumInstances())
	for len(cents) < km.K {
		// Parallel fill of per-instance distances, then a sequential
		// index-order sum so the float total (and hence the rng draw
		// mapping) matches the sequential fit exactly.
		_ = parallel.ForEach(context.Background(), d.NumInstances(), func(i int) error {
			best := math.Inf(1)
			for _, c := range cents {
				if dd := euclidean(d.Instances[i].Values, c, km.cols); dd < best {
					best = dd
				}
			}
			dist2[i] = best * best
			return nil
		})
		var total float64
		for _, w := range dist2 {
			total += w
		}
		if total == 0 {
			cents = append(cents, pick(rng.Intn(d.NumInstances())))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, w := range dist2 {
			r -= w
			if r <= 0 {
				idx = i
				break
			}
		}
		cents = append(cents, pick(idx))
	}
	return cents
}

// NumClusters implements Clusterer.
func (km *KMeans) NumClusters() int { return len(km.Centroids) }

// Assign implements Clusterer.
func (km *KMeans) Assign(in *dataset.Instance) (int, error) {
	if km.Centroids == nil {
		return -1, fmt.Errorf("cluster: SimpleKMeans is unbuilt")
	}
	return nearestCentroid(in.Values, km.Centroids, km.cols), nil
}

// FarthestFirst implements Hochbaum–Shmoys farthest-first traversal, a fast
// k-centre approximation (also shipped by WEKA).
type FarthestFirst struct {
	K    int
	Seed int64

	cols      []int
	Centroids [][]float64
}

func init() { register("FarthestFirst", func() Clusterer { return &FarthestFirst{K: 2, Seed: 1} }) }

// Name implements Clusterer.
func (ff *FarthestFirst) Name() string { return "FarthestFirst" }

// Options implements Parameterized.
func (ff *FarthestFirst) Options() []option {
	return []option{
		algo.Int("k", "number of clusters", &ff.K, 1).Require(),
		algo.Seed("seed", "first-centre RNG seed", &ff.Seed),
	}
}

// SetOption implements Parameterized.
func (ff *FarthestFirst) SetOption(name, value string) error { return Registry.Set(ff, name, value) }

// Build implements Clusterer.
func (ff *FarthestFirst) Build(d *dataset.Dataset) error {
	cols, err := numericColumns(d)
	if err != nil {
		return err
	}
	if d.NumInstances() < ff.K {
		return fmt.Errorf("cluster: %d instances < k=%d", d.NumInstances(), ff.K)
	}
	ff.cols = cols
	rng := rand.New(rand.NewSource(ff.Seed))
	point := func(i int) []float64 {
		c := make([]float64, len(cols))
		for j, col := range cols {
			v := d.Instances[i].Values[col]
			if !dataset.IsMissing(v) {
				c[j] = v
			}
		}
		return c
	}
	ff.Centroids = [][]float64{point(rng.Intn(d.NumInstances()))}
	for len(ff.Centroids) < ff.K {
		bestIdx, bestDist := -1, -1.0
		for i, in := range d.Instances {
			nearest := math.Inf(1)
			for _, c := range ff.Centroids {
				if dd := euclidean(in.Values, c, cols); dd < nearest {
					nearest = dd
				}
			}
			if nearest > bestDist {
				bestIdx, bestDist = i, nearest
			}
		}
		ff.Centroids = append(ff.Centroids, point(bestIdx))
	}
	return nil
}

// NumClusters implements Clusterer.
func (ff *FarthestFirst) NumClusters() int { return len(ff.Centroids) }

// Assign implements Clusterer.
func (ff *FarthestFirst) Assign(in *dataset.Instance) (int, error) {
	if ff.Centroids == nil {
		return -1, fmt.Errorf("cluster: FarthestFirst is unbuilt")
	}
	return nearestCentroid(in.Values, ff.Centroids, ff.cols), nil
}
