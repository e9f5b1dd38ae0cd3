package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/workflow"
)

// Group is the rolled-up summary of every job sharing one algorithm:
// mean±stddev accuracy over the jobs that produced metrics, failure
// counts, and mean wall-clock.
type Group struct {
	Algorithm string
	Task      string
	Jobs      int
	Completed int // StatusOK + StatusSkipped (journal hits carry metrics)
	Failed    int
	Retried   int // jobs that needed more than one attempt
	MeanAcc   float64
	StdDevAcc float64
	MeanKappa float64
	MeanWall  time.Duration
}

// Aggregate groups results by algorithm and ranks the groups by mean
// accuracy, best first — the cross-experiment ranking table.
func Aggregate(results []JobResult) []Group {
	byAlg := map[string]*Group{}
	accs := map[string][]float64{}
	var order []string
	for _, res := range results {
		g, ok := byAlg[res.Job.Algorithm]
		if !ok {
			g = &Group{Algorithm: res.Job.Algorithm, Task: res.Job.Task}
			byAlg[res.Job.Algorithm] = g
			order = append(order, res.Job.Algorithm)
		}
		g.Jobs++
		if res.Attempts > 1 {
			g.Retried++
		}
		if res.Status == StatusFailed {
			g.Failed++
			continue
		}
		g.Completed++
		accs[res.Job.Algorithm] = append(accs[res.Job.Algorithm], res.Metrics.Accuracy)
		g.MeanKappa += res.Metrics.Kappa
		g.MeanWall += res.Wall
	}
	groups := make([]Group, 0, len(order))
	for _, alg := range order {
		g := byAlg[alg]
		if n := g.Completed; n > 0 {
			mean, sd := meanStdDev(accs[alg])
			g.MeanAcc, g.StdDevAcc = mean, sd
			g.MeanKappa /= float64(n)
			g.MeanWall /= time.Duration(n)
		}
		groups = append(groups, *g)
	}
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].MeanAcc != groups[j].MeanAcc {
			return groups[i].MeanAcc > groups[j].MeanAcc
		}
		return groups[i].Algorithm < groups[j].Algorithm
	})
	return groups
}

// meanStdDev returns the mean and sample standard deviation (n-1; 0 when
// n < 2) of xs.
func meanStdDev(xs []float64) (mean, sd float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / (n - 1))
}

// Report renders the per-job table followed by the per-algorithm ranking.
func Report(results []JobResult) string {
	var b strings.Builder
	b.WriteString("=== Jobs ===\n")
	fmt.Fprintf(&b, "%-60s %-8s %8s %9s %9s %10s\n",
		"job", "status", "attempts", "accuracy", "kappa", "wall")
	for _, res := range results {
		acc, kappa := "-", "-"
		if res.Status != StatusFailed {
			acc = fmt.Sprintf("%.4f", res.Metrics.Accuracy)
			kappa = fmt.Sprintf("%.4f", res.Metrics.Kappa)
		}
		fmt.Fprintf(&b, "%-60s %-8s %8d %9s %9s %10s\n",
			res.Job.ID, res.Status, res.Attempts, acc, kappa, res.Wall.Round(time.Millisecond))
		if res.Err != "" {
			fmt.Fprintf(&b, "    error: %s\n", res.Err)
		}
	}
	b.WriteString("\n=== Ranking (mean accuracy per algorithm) ===\n")
	fmt.Fprintf(&b, "%4s %-20s %6s %7s %7s %18s %9s %10s\n",
		"rank", "algorithm", "jobs", "failed", "retried", "accuracy", "kappa", "mean wall")
	for i, g := range Aggregate(results) {
		fmt.Fprintf(&b, "%4d %-20s %6d %7d %7d %9.4f ±%6.4f %9.4f %10s\n",
			i+1, g.Algorithm, g.Jobs, g.Failed, g.Retried,
			g.MeanAcc, g.StdDevAcc, g.MeanKappa, g.MeanWall.Round(time.Millisecond))
	}
	return b.String()
}

// ResultsFromRecords reconstructs job results from a batch's journal
// records so `dmexp report` works from the journal alone. Later records
// for the same job ID supersede earlier ones (a failure journaled before
// a resumed success).
func ResultsFromRecords(recs []workflow.StepRecord) []JobResult {
	latest := map[string]int{}
	var results []JobResult
	for _, rec := range recs {
		res := resultOf(rec)
		if i, ok := latest[rec.Step]; ok {
			results[i] = res
			continue
		}
		latest[rec.Step] = len(results)
		results = append(results, res)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Job.ID < results[j].Job.ID })
	return results
}
