// Command benchmark is the repository's end-to-end benchmark: five
// workloads against an in-process deployment over loopback HTTP, closed
// loop, each reply checked against a locally computed answer, plus a
// traced pass that attributes a request's time to the layers it crosses.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// Frozen run shape; -seconds only scales the timed window.
const (
	setupReps   = 5                       // fewest set-ups per run; setup_s is the median of all
	setupSpan   = 1500 * time.Millisecond // cheap set-ups repeat this long, up to maxSetups: a host hiccup then hits a minority
	maxSetups   = 15
	warmWindow  = time.Second // warm traffic before the first timed request
	spinWindow  = 1200 * time.Millisecond
	smokeWindow = 500 * time.Millisecond
	smokeReplay = 4
)

// options selects one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	smoke    bool
	dir      string // scratch directory
	outDir   string // where trace files go
	out      io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var seconds, trace int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input (2 is the held-out seed)")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed window, cut into 5 rounds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload for half a second, traced replay included")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and compare the two sets against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name> [-seed n] [-seconds n] [-trace 0|1] | -smoke | -selfcheck")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	o.window = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.out = os.Stdout
	o.dir = os.TempDir()
	o.outDir = filepath.Join(sourceDir(), "out")

	var (
		res *result
		err error
	)
	switch {
	case selfcheck:
		err = selfCheck(o, seconds)
	case o.smoke:
		for _, w := range workloads {
			o.workload = w.name
			if res, err = run(o); err != nil || !res.Correct {
				break
			}
		}
	case o.workload == "all":
		for _, w := range workloads {
			if _, err = runChild(w.name, o.seed, seconds, trace, os.Stdout); err != nil {
				break
			}
		}
	default:
		if res, err = run(o); err == nil {
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
		}
	}
	if err == nil && res != nil && !res.Correct {
		err = fmt.Errorf("%s: %d of %d operations failed", o.workload, res.Failed, res.Attempted)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// sourceDir is the benchmark's directory when the process runs from it
// or from the repository root, else the working directory.
func sourceDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return "benchmark"
	}
	return "."
}

// run performs one workload once and prints its report to o.out.
func run(o options) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	cfg := config{seed: o.seed, clients: min(maxClients, runtime.NumCPU()), dir: o.dir}
	window, warm, reps, span := o.window, warmWindow, setupReps, setupSpan
	if o.smoke {
		window, warm, reps, span = smokeWindow, 0, 1, 0
	}
	if o.trace {
		reps, span = 1, 0
	}
	ctx := context.Background()

	// This host runs a process that was idle at half speed for its first
	// second or so; get that over with before anything is timed.
	if !o.smoke {
		spin(spinWindow)
	}

	// Set up at least reps times; the last instance is the one measured.
	var (
		in     *instance
		from   []int
		setups []float64
	)
	for begun := time.Now(); len(setups) < reps || (time.Since(begun) < span && len(setups) < maxSetups); {
		if in != nil {
			in.close()
		}
		started := time.Now()
		var err error
		if in, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		// The warm-up pass touches every session and opens every
		// connection, by construction of each workload.
		from = make([]int, cfg.clients)
		if err := firstFailure(closedLoop(ctx, in, from, forOps(in.warm), nil)); err != nil {
			in.close()
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(started).Seconds())
	}
	defer in.close()
	if err := firstFailure(closedLoop(ctx, in, from, forWindow(warm), nil)); err != nil {
		return nil, fmt.Errorf("%s: warm traffic: %w", w.name, err)
	}

	fmt.Fprintf(o.out, "workload %s seed %d: %s\n", w.name, o.seed, w.why)
	fmt.Fprintf(o.out, "  closed loop, %d client(s), window %v in %d rounds, gomaxprocs %d, nproc %d, %s, git %s\n",
		cfg.clients, window, rounds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), gitSHA())
	if o.trace {
		return runTraced(ctx, o, w, in, from, window)
	}

	before, err := scrape(in.dep.BaseURL)
	if err != nil {
		return nil, err
	}
	mem := memNow()
	samples := closedLoop(ctx, in, from, forWindow(window), nil)
	mem = memNow().since(mem)
	after, err := scrape(in.dep.BaseURL)
	if err != nil {
		return nil, err
	}
	t, err := summarize(samples, window, o.smoke)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	values := map[string]float64{
		"rows_per_s": t.rowsPerSec, "call_p50_ms": t.p50ms, "call_p95_ms": t.p95ms, "setup_s": median(setups),
	}
	for _, def := range endToEnd {
		res.Metrics[def.Name] = metric{values[def.Name], def.Unit}
		fmt.Fprintf(o.out, "  %-12s %14.4f %s\n", def.Name, values[def.Name], def.Unit)
	}
	fmt.Fprintf(o.out, "  fail_ratio   %14.6f failed/attempted (%d attempted, %d succeeded, %d failed)\n",
		float64(t.failed)/float64(t.attempted), t.attempted, t.attempted-t.failed, t.failed)
	if t.firstErr != nil {
		fmt.Fprintf(o.out, "  first failure: %v\n", t.firstErr)
	}
	fmt.Fprintf(o.out, "  call_p95_ms rests on %d samples in the leanest round, %d in all; set-ups %.3f s\n", t.minRound, t.samples, setups)
	fmt.Fprintf(o.out, "  per round: rows/s %.0f  p50 ms %.3f  p95 ms %.3f\n", t.perRound, t.p50s, t.p95s)
	shed := after.since(before).total("admission_shed_total")
	fmt.Fprintf(o.out, "  calls_total %d  allocs_per_row %.1f  alloc_bytes_per_row %.0f  peak_rss_mb %.1f  admission.shed_total %d\n",
		t.attempted, float64(mem.mallocs)/float64(max(t.rows, 1)), float64(mem.bytes)/float64(max(t.rows, 1)), peakRSSMB(), shed)
	if !o.smoke && t.attempted < 400 {
		return nil, fmt.Errorf("%s: only %d timed calls, the workload is sized for at least 400", w.name, t.attempted)
	}
	if o.smoke {
		// The smoke run also drives the traced pass, so tier-1 covers it.
		if _, err := runTraced(ctx, o, w, in, from, window); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// spin keeps every processor busy for d.
func spin(d time.Duration) {
	var wg sync.WaitGroup
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for began := time.Now(); time.Since(began) < d; {
			}
		}()
	}
	wg.Wait()
}

// runTraced is the -trace 1 run: an untraced window, the same window
// with a span recorded around every call, then the stage-by-stage
// replay. It reports the per-layer metrics.
func runTraced(ctx context.Context, o options, w workload, in *instance, from []int, window time.Duration) (*result, error) {
	replay := replayRequests
	if o.smoke {
		replay = smokeReplay
	}
	phase := window / 3
	before, err := scrape(in.dep.BaseURL)
	if err != nil {
		return nil, err
	}
	plain, err := summarize(closedLoop(ctx, in, from, forWindow(phase), nil), phase, true)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced phase: %w", w.name, err)
	}
	after, err := scrape(in.dep.BaseURL)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := summarize(closedLoop(ctx, in, from, forWindow(phase), tr), phase, true)
	if err != nil {
		return nil, fmt.Errorf("%s: traced phase: %w", w.name, err)
	}
	ledger, err := replayAll(ctx, in, tr, from, replay)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	moved := after.since(before)
	ledger["admission.shed_total"] = float64(moved.total("admission_shed_total"))
	ledger["harness.builds"] = float64(moved.total("harness_builds_total"))
	hits, misses := moved.total("harness_cache_hits_total"), moved.total("harness_cache_misses_total")
	if hits+misses > 0 {
		ledger["harness.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if plain.rowsPerSec > 0 {
		ledger["trace_overhead_pct"] = 100 * (plain.rowsPerSec - traced.rowsPerSec) / plain.rowsPerSec
	}

	path, err := tr.write(o.outDir, w.name, ledger)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	failed := plain.failed + traced.failed
	res := &result{Correct: failed == 0, Attempted: plain.attempted + traced.attempted + replay, Failed: failed,
		Metrics: map[string]metric{}}
	fmt.Fprintf(o.out, "  traced pass: %d requests replayed stage by stage, %d spans in %s\n", replay, len(tr.spans), path)
	for _, def := range perLayer {
		res.Metrics[def.Name] = metric{ledger[def.Name], def.Unit}
		fmt.Fprintf(o.out, "  %-32s %14.3f %s\n", def.Name, ledger[def.Name], def.Unit)
	}
	if u := ledger["unattributed_pct"]; u > 10 || u < -10 {
		fmt.Fprintf(o.out, "  FLAG unattributed_pct %.1f%% is beyond 10%%: the replayed stages do not add up to the live call\n", u)
	}
	fmt.Fprintf(o.out, "  harness restores %d, misses %d, hits %d over the untraced phase (%d calls)\n",
		moved.total("harness_store_restores_total"), misses, hits, plain.attempted)
	return res, nil
}

// gitSHA is the revision the binary was built from, when the build
// happened inside a git checkout.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runChild runs one workload in a fresh process of this binary, copies
// its report to out and returns the parsed result line.
func runChild(workload string, seed int64, seconds, trace int, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if out != nil {
		_, _ = out.Write(stdout)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &res, nil
}

// selfCheck runs two complete sets back to back and holds every
// workload x end-to-end metric pair to its bound.
func selfCheck(o options, seconds int) error {
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range workloads {
			res, err := runChild(w.name, o.seed, seconds, 0, nil)
			if err != nil {
				return err
			}
			sets[i][w.name] = res
			fmt.Fprintf(o.out, "set %d %-15s attempted %d failed %d\n", i+1, w.name, res.Attempted, res.Failed)
		}
	}
	fmt.Fprintf(o.out, "%-15s %-12s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	disagree := 0
	for _, w := range workloads {
		for _, def := range endToEnd {
			a, b := sets[0][w.name].Metrics[def.Name].Value, sets[1][w.name].Metrics[def.Name].Value
			diff, verdict := math.Abs(b-a)/a, ""
			// One run's set-up time is the median of a second or two;
			// below half a second a single pair differs by host noise alone.
			if diff > def.Bound && !(def.Name == "setup_s" && math.Abs(b-a) < 0.5) {
				verdict = "  DISAGREE"
				disagree++
			}
			fmt.Fprintf(o.out, "%-15s %-12s %14.4f %14.4f %7.1f%% %7.1f%%%s\n",
				w.name, def.Name, a, b, 100*diff, 100*def.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("selfcheck: %d workload x metric pairs disagree by more than their bound", disagree)
	}
	return nil
}
