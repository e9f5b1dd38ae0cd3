package cluster

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/dataset"
)

// Linkage selects the inter-cluster distance used by agglomerative
// clustering.
type Linkage int

const (
	// SingleLink merges on the minimum pairwise distance.
	SingleLink Linkage = iota
	// CompleteLink merges on the maximum pairwise distance.
	CompleteLink
	// AverageLink merges on the mean pairwise distance.
	AverageLink
)

func (l Linkage) String() string {
	switch l {
	case SingleLink:
		return "single"
	case CompleteLink:
		return "complete"
	case AverageLink:
		return "average"
	default:
		return fmt.Sprintf("linkage(%d)", int(l))
	}
}

// Merge records one agglomeration step; Left/Right index either original
// instances (< n) or prior merges (n + step). This is the dendrogram the
// toolkit's cluster visualiser renders.
type Merge struct {
	Left, Right int
	Distance    float64
}

// Hierarchical is bottom-up agglomerative clustering over the numeric
// attributes, cut at K clusters.
type Hierarchical struct {
	K       int
	Linkage Linkage

	cols      []int
	merges    []Merge
	Centroids [][]float64
	n         int
}

func init() {
	Register("Hierarchical", func() Clusterer { return &Hierarchical{K: 2, Linkage: AverageLink} })
}

// Name implements Clusterer.
func (h *Hierarchical) Name() string { return "Hierarchical" }

// Options implements Parameterized.
func (h *Hierarchical) Options() []Option {
	return []Option{
		{Name: "k", Description: "number of clusters after cutting", Default: "2", Required: true},
		{Name: "linkage", Description: "single | complete | average", Default: "average"},
	}
}

// SetOption implements Parameterized.
func (h *Hierarchical) SetOption(name, value string) error {
	switch name {
	case "k":
		n, err := strconv.Atoi(value)
		if err != nil || n < 1 {
			return fmt.Errorf("cluster: Hierarchical k must be a positive integer, got %q", value)
		}
		h.K = n
	case "linkage":
		switch value {
		case "single":
			h.Linkage = SingleLink
		case "complete":
			h.Linkage = CompleteLink
		case "average":
			h.Linkage = AverageLink
		default:
			return fmt.Errorf("cluster: Hierarchical linkage must be single|complete|average, got %q", value)
		}
	default:
		return fmt.Errorf("cluster: Hierarchical has no option %q", name)
	}
	return nil
}

// Build implements Clusterer. It runs the Lance-Williams update over a full
// distance matrix (O(n^2) memory), adequate for the toolkit's workloads.
func (h *Hierarchical) Build(d *dataset.Dataset) error {
	cols, err := numericColumns(d)
	if err != nil {
		return err
	}
	n := d.NumInstances()
	if n < h.K {
		return fmt.Errorf("cluster: %d instances < k=%d", n, h.K)
	}
	h.cols = cols
	h.n = n
	// Pairwise distances between current clusters; active tracks liveness.
	dist := make([][]float64, n)
	size := make([]float64, n)
	id := make([]int, n) // dendrogram id of cluster slot
	members := make([][]int, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		size[i] = 1
		id[i] = i
		members[i] = []int{i}
	}
	pt := func(i int) []float64 {
		c := make([]float64, len(cols))
		for j, col := range cols {
			v := d.Instances[i].Values[col]
			if !dataset.IsMissing(v) {
				c[j] = v
			}
		}
		return c
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = pt(i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for k := range cols {
				diff := pts[i][k] - pts[j][k]
				s += diff * diff
			}
			dist[i][j] = math.Sqrt(s)
			dist[j][i] = dist[i][j]
		}
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	h.merges = nil
	for step := 0; step < n-1; step++ {
		// Find the closest active pair.
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if active[j] && dist[i][j] < bd {
					bi, bj, bd = i, j, dist[i][j]
				}
			}
		}
		h.merges = append(h.merges, Merge{Left: id[bi], Right: id[bj], Distance: bd})
		// Lance-Williams: fold j into i.
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			switch h.Linkage {
			case SingleLink:
				dist[bi][k] = math.Min(dist[bi][k], dist[bj][k])
			case CompleteLink:
				dist[bi][k] = math.Max(dist[bi][k], dist[bj][k])
			case AverageLink:
				dist[bi][k] = (size[bi]*dist[bi][k] + size[bj]*dist[bj][k]) / (size[bi] + size[bj])
			}
			dist[k][bi] = dist[bi][k]
		}
		size[bi] += size[bj]
		members[bi] = append(members[bi], members[bj]...)
		id[bi] = n + step
		active[bj] = false
		// Stop early once K clusters remain — the rest of the dendrogram is
		// still recorded for visualisation unless we cut here.
	}
	// Cut the dendrogram at K clusters: undo the last K-1 merges by
	// recomputing memberships from the first n-K merges.
	h.Centroids = h.cut(d, n)
	return nil
}

// cut rebuilds cluster memberships after n-K merges and returns centroids.
func (h *Hierarchical) cut(d *dataset.Dataset, n int) [][]float64 {
	parent := make([]int, n+len(h.merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	stop := n - h.K
	if stop < 0 {
		stop = 0
	}
	for s := 0; s < stop && s < len(h.merges); s++ {
		m := h.merges[s]
		root := n + s
		parent[find(m.Left)] = root
		parent[find(m.Right)] = root
	}
	// Clusters are numbered by their lowest member row, so the labels do
	// not depend on map order.
	groups := map[int][]int{}
	var roots []int
	for i := 0; i < n; i++ {
		g := find(i)
		if groups[g] == nil {
			roots = append(roots, g)
		}
		groups[g] = append(groups[g], i)
	}
	cents := make([][]float64, 0, len(groups))
	for _, g := range roots {
		idxs := groups[g]
		c := make([]float64, len(h.cols))
		for _, i := range idxs {
			for j, col := range h.cols {
				v := d.Instances[i].Values[col]
				if !dataset.IsMissing(v) {
					c[j] += v
				}
			}
		}
		for j := range c {
			c[j] /= float64(len(idxs))
		}
		cents = append(cents, c)
	}
	return cents
}

// Merges exposes the recorded dendrogram.
func (h *Hierarchical) Merges() []Merge { return h.merges }

// NumClusters implements Clusterer.
func (h *Hierarchical) NumClusters() int { return len(h.Centroids) }

// Assign implements Clusterer (nearest cut-centroid).
func (h *Hierarchical) Assign(in *dataset.Instance) (int, error) {
	if h.Centroids == nil {
		return -1, fmt.Errorf("cluster: Hierarchical is unbuilt")
	}
	return nearestCentroid(in.Values, h.Centroids, h.cols), nil
}

// DBSCAN is density-based clustering with parameters Eps and MinPts; noise
// points are assigned cluster index -1 by Assign.
type DBSCAN struct {
	Eps    float64
	MinPts int

	cols   []int
	points [][]float64
	labels []int
	k      int
}

func init() { Register("DBSCAN", func() Clusterer { return &DBSCAN{Eps: 0.9, MinPts: 4} }) }

// Name implements Clusterer.
func (db *DBSCAN) Name() string { return "DBSCAN" }

// Options implements Parameterized.
func (db *DBSCAN) Options() []Option {
	return []Option{
		{Name: "eps", Description: "neighbourhood radius", Default: "0.9", Required: true},
		{Name: "minPts", Description: "minimum neighbours for a core point", Default: "4"},
	}
}

// SetOption implements Parameterized.
func (db *DBSCAN) SetOption(name, value string) error {
	switch name {
	case "eps":
		f, err := strconv.ParseFloat(value, 64)
		if err != nil || f <= 0 {
			return fmt.Errorf("cluster: DBSCAN eps must be positive, got %q", value)
		}
		db.Eps = f
	case "minPts":
		n, err := strconv.Atoi(value)
		if err != nil || n < 1 {
			return fmt.Errorf("cluster: DBSCAN minPts must be a positive integer, got %q", value)
		}
		db.MinPts = n
	default:
		return fmt.Errorf("cluster: DBSCAN has no option %q", name)
	}
	return nil
}

// Build implements Clusterer.
func (db *DBSCAN) Build(d *dataset.Dataset) error {
	cols, err := numericColumns(d)
	if err != nil {
		return err
	}
	db.cols = cols
	n := d.NumInstances()
	db.points = make([][]float64, n)
	for i, in := range d.Instances {
		p := make([]float64, len(cols))
		for j, col := range cols {
			v := in.Values[col]
			if !dataset.IsMissing(v) {
				p[j] = v
			}
		}
		db.points[i] = p
	}
	db.labels = make([]int, n)
	for i := range db.labels {
		db.labels[i] = -2 // unvisited
	}
	pdist := func(a, b []float64) float64 {
		var s float64
		for j := range a {
			diff := a[j] - b[j]
			s += diff * diff
		}
		return math.Sqrt(s)
	}
	neighbours := func(i int) []int {
		var out []int
		for j := range db.points {
			if j != i && pdist(db.points[i], db.points[j]) <= db.Eps {
				out = append(out, j)
			}
		}
		return out
	}
	cid := 0
	for i := range db.points {
		if db.labels[i] != -2 {
			continue
		}
		nbs := neighbours(i)
		if len(nbs)+1 < db.MinPts {
			db.labels[i] = -1 // noise (may be claimed by a cluster later)
			continue
		}
		db.labels[i] = cid
		queue := append([]int(nil), nbs...)
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if db.labels[q] == -1 {
				db.labels[q] = cid // border point
			}
			if db.labels[q] != -2 {
				continue
			}
			db.labels[q] = cid
			qn := neighbours(q)
			if len(qn)+1 >= db.MinPts {
				queue = append(queue, qn...)
			}
		}
		cid++
	}
	db.k = cid
	return nil
}

// NumClusters implements Clusterer (noise excluded).
func (db *DBSCAN) NumClusters() int { return db.k }

// Labels returns the per-training-instance labels (-1 = noise).
func (db *DBSCAN) Labels() []int { return db.labels }

// fittedCols implements rowAssigner.
func (db *DBSCAN) fittedCols() []int { return db.cols }

// Assign implements Clusterer: the label of the nearest training point.
func (db *DBSCAN) Assign(in *dataset.Instance) (int, error) {
	if db.points == nil {
		return -1, fmt.Errorf("cluster: DBSCAN is unbuilt")
	}
	best, bestD := -1, math.Inf(1)
	for i, p := range db.points {
		var s float64
		for j, col := range db.cols {
			v := in.Values[col]
			if dataset.IsMissing(v) {
				continue
			}
			diff := v - p[j]
			s += diff * diff
		}
		if s < bestD {
			best, bestD = i, s
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("cluster: DBSCAN has no training points")
	}
	return db.labels[best], nil
}
