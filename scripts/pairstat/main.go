// Command pairstat summarises the runs scripts/pair.sh records: one JSON
// object per workload and end-to-end metric of BENCHMARK.json, comparing
// the change with the parent over alternating pairs and the parent with
// itself over A/A pairs.
//
//	go run ./scripts/pairstat -bench BENCHMARK.json runs.jsonl
//	go run ./scripts/pairstat -workloads BENCHMARK.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
)

type benchmark struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metric                `json:"end_to_end"`
}

// metric is an end-to-end metric: Better is "higher" or "lower", and
// Bound the largest worsening, as a fraction, the benchmark accepts.
type metric struct {
	Name, Unit, Better string
	Bound              float64
}

// run is one line of runs.jsonl: a benchmark result line and where it
// belongs. Role is parent or change for the A/B pairs, aa1 or aa2 for
// the two halves of the A/A pairs.
type run struct {
	Workload string
	Role     string
	Pair     int
	Result   struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
}

// spread is a side's median and quartiles (Tukey's hinges).
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type summary struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	K        int     `json:"k"`
	Parent   spread  `json:"parent"`
	Change   spread  `json:"change"`
	Ratio    float64 `json:"ratio"`
	Wins     int     `json:"wins"`
	SignP    float64 `json:"sign_p"`
	AARatio  float64 `json:"aa_ratio"`
	Bound    float64 `json:"bound"`
	Worse    bool    `json:"worse_than_bound"`
	Correct  bool    `json:"correct"`
	Failed   int     `json:"failed"`
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark declaration")
	list := flag.String("workloads", "", "print the workload names of this BENCHMARK.json and exit")
	flag.Parse()
	if *list != "" {
		b, err := readBenchmark(*list)
		check(err)
		for _, w := range b.Workloads {
			fmt.Print(w.Name, " ")
		}
		fmt.Println()
		return
	}
	if flag.NArg() != 1 {
		check(fmt.Errorf("usage: pairstat -bench BENCHMARK.json runs.jsonl"))
	}
	b, err := readBenchmark(*benchPath)
	check(err)
	runs, err := readRuns(flag.Arg(0))
	check(err)
	enc := json.NewEncoder(os.Stdout)
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			if s, ok := summarise(runs, w.Name, m); ok {
				check(enc.Encode(s))
			}
		}
	}
}

// summarise compares the change with the parent on one workload and
// metric. The ratio is change over parent medians; a pair is a win when
// the change's value is better than the parent's in the same pair.
func summarise(runs []run, workload string, m metric) (summary, bool) {
	s := summary{Workload: workload, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Correct: true}
	byRole := map[string]map[int]float64{}
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		s.Correct = s.Correct && r.Result.Correct
		s.Failed += r.Result.Failed
		v, ok := r.Result.Metrics[m.Name]
		if !ok {
			continue
		}
		if byRole[r.Role] == nil {
			byRole[r.Role] = map[int]float64{}
		}
		byRole[r.Role][r.Pair] = v.Value
	}
	if len(byRole["parent"]) == 0 || len(byRole["change"]) == 0 {
		return s, false
	}
	for i, p := range byRole["parent"] {
		if c, ok := byRole["change"][i]; ok {
			s.K++
			if m.Better == "higher" && c > p || m.Better == "lower" && c < p {
				s.Wins++
			}
		}
	}
	s.Parent, s.Change = spreadOf(byRole["parent"]), spreadOf(byRole["change"])
	s.Ratio = s.Change.Median / s.Parent.Median
	s.SignP = signP(s.Wins, s.K)
	s.Worse = m.Better == "higher" && s.Ratio < 1-m.Bound || m.Better == "lower" && s.Ratio > 1+m.Bound
	if len(byRole["aa1"]) > 0 && len(byRole["aa2"]) > 0 {
		s.AARatio = spreadOf(byRole["aa2"]).Median / spreadOf(byRole["aa1"]).Median
	}
	return s, true
}

func spreadOf(vals map[int]float64) spread {
	v := make([]float64, 0, len(vals))
	for _, x := range vals {
		v = append(v, x)
	}
	slices.Sort(v)
	half := len(v) / 2
	return spread{Median: median(v), Q1: median(v[:max(1, half)]), Q3: median(v[len(v)-max(1, half):])}
}

func median(v []float64) float64 {
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// signP is the one-sided sign-test p-value of at least wins successes in
// k fair coin flips.
func signP(wins, k int) float64 {
	p := 0.0
	for i := wins; i <= k; i++ {
		p += binom(k, i)
	}
	return p / math.Pow(2, float64(k))
}

func binom(n, r int) float64 {
	c := 1.0
	for i := 1; i <= r; i++ {
		c = c * float64(n-r+i) / float64(i)
	}
	return c
}

func readBenchmark(path string) (*benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmark
	return &b, json.Unmarshal(data, &b)
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pairstat:", err)
		os.Exit(1)
	}
}
