// Command dmsoak is the replica-churn soak harness: the repeatable
// version of the "kill a replica mid-workload" drill the store's
// crash-safety work exists for. It boots N dmserver processes sharing
// one -store-dir behind a fresh TTL registry, drives a sustained mixed
// train / classify / classifyBatch workload through the typed
// core.Client with resilience pools, and — while the workload runs —
// SIGKILLs and restarts a random replica every -kill-every, deletes
// stored models to feed the replicas' background GC, and scrapes
// /metrics. Because session tokens are replica-portable and training is
// content-addressed, the acceptance bar is zero client-visible failures
// (retries and failover are allowed; errors surfacing to the caller are
// not).
//
// The run ends with a forced compaction of the shared store and a JSON
// report (-out, and always stdout): p50/p99/p999 latency per operation,
// error budget, store hit ratio, retrain count, breaker trips, and GC
// reclaim. -short is the deterministic CI shape: 2 replicas, ~6 s, a
// kill every 2.5 s.
//
// Usage:
//
//	dmsoak [-replicas 3] [-duration 60s] [-kill-every 10s] [-workers 4]
//	       [-seed 1] [-out report.json] [-short] [-v]
//	       [-dmserver path/to/dmserver] [-store-dir DIR]
//	       [-store-gc-interval 2s] [-store-gc-max-dead-bytes 32768]
//	       [-store-gc-max-dead-frac 0.5] [-store-gc-max-age 0]
//	       [-delete-every 2s] [-error-budget 0]
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/services"
	"repro/internal/store"
)

type config struct {
	Replicas     int           `json:"replicas"`
	Duration     time.Duration `json:"-"`
	KillEvery    time.Duration `json:"-"`
	Workers      int           `json:"workers"`
	Seed         int64         `json:"seed"`
	Short        bool          `json:"short"`
	DurationSecs float64       `json:"duration_seconds"`
	KillSecs     float64       `json:"kill_every_seconds"`

	dmserverBin string
	storeDir    string
	gcInterval  time.Duration
	gcMaxDead   int64
	gcMaxFrac   float64
	gcMaxAge    time.Duration
	deleteEvery time.Duration
	errorBudget int64
	out         string
	verbose     bool
}

// quantiles summarises one operation's latency samples.
type quantiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_ms"`
	P99   float64 `json:"p99_ms"`
	P999  float64 `json:"p999_ms"`
	Max   float64 `json:"max_ms"`
}

// summarize computes the latency quantiles of samples (milliseconds).
// The nearest-rank method over the sorted samples keeps it dependency-
// free and monotone: p50 <= p99 <= p999 <= max always holds.
func summarize(samples []float64) quantiles {
	if len(samples) == 0 {
		return quantiles{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return quantiles{
		Count: len(s),
		P50:   rank(0.50),
		P99:   rank(0.99),
		P999:  rank(0.999),
		Max:   s[len(s)-1],
	}
}

// report is the JSON document dmsoak emits. Key names are load-bearing:
// scripts/smoke.sh and verify.sh grep for "failed", "kills" and
// "reclaimed_bytes".
type report struct {
	Config   config `json:"config"`
	Requests struct {
		Total  int64            `json:"total"`
		Failed int64            `json:"failed"`
		ByOp   map[string]int64 `json:"by_op"`
	} `json:"requests"`
	LatencyMS map[string]quantiles `json:"latency_ms"`
	Churn     struct {
		Kills    int64 `json:"kills"`
		Restarts int64 `json:"restarts"`
	} `json:"churn"`
	Store struct {
		Hits       int64   `json:"hits"`
		Misses     int64   `json:"misses"`
		HitRatio   float64 `json:"hit_ratio"`
		Retrains   int64   `json:"retrains"`
		LiveBytes  int64   `json:"live_bytes"`
		DeadBytes  int64   `json:"dead_bytes"`
		Generation int64   `json:"generation"`
	} `json:"store"`
	Resilience struct {
		Retries      int64 `json:"retries"`
		BreakerOpens int64 `json:"breaker_opens"`
	} `json:"resilience"`
	GC struct {
		Runs                 int64 `json:"runs"`
		ReclaimedBytes       int64 `json:"reclaimed_bytes"`
		FinalCompactReclaims int64 `json:"final_compact_reclaimed_bytes"`
		PostGCBytes          int64 `json:"post_gc_bytes"`
	} `json:"gc"`
	ErrorBudgetOK bool `json:"error_budget_ok"`
}

// ---------------------------------------------------------------------------
// Fleet: N dmserver processes on one store directory.

type replica struct {
	slot        int
	incarnation int
	cmd         *exec.Cmd
	baseURL     string
}

type fleet struct {
	cfg    config
	regURL string

	mu    sync.Mutex
	slots []*replica

	kills    atomic.Int64
	restarts atomic.Int64
}

// start boots a dmserver into slot and waits for its listen line.
func (f *fleet) start(slot, incarnation int) (*replica, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-backend", "cached",
		"-store-dir", f.cfg.storeDir,
		"-publish", f.regURL,
		"-heartbeat", "300ms",
		"-drain-grace", "1s",
		"-log-level", "warn",
	}
	if f.cfg.gcInterval > 0 {
		args = append(args,
			"-store-gc-interval", f.cfg.gcInterval.String(),
			"-store-gc-max-dead-bytes", fmt.Sprint(f.cfg.gcMaxDead),
			"-store-gc-max-dead-frac", fmt.Sprint(f.cfg.gcMaxFrac),
		)
		if f.cfg.gcMaxAge > 0 {
			args = append(args, "-store-gc-max-age", f.cfg.gcMaxAge.String())
		}
	}
	cmd := exec.Command(f.cfg.dmserverBin, args...)
	if f.cfg.verbose {
		cmd.Stderr = os.Stderr
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	baseURL := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "dmserver listening on "); ok {
			baseURL = strings.TrimSpace(strings.SplitN(rest, " ", 2)[0])
			break
		}
	}
	if baseURL == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("replica %d.%d exited before listening", slot, incarnation)
	}
	// One goroutine per process drains the remaining stdout and reaps it;
	// calling Wait here (and nowhere else) keeps the pipe teardown safe.
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait()
	}()
	r := &replica{slot: slot, incarnation: incarnation, cmd: cmd, baseURL: baseURL}
	// The registry learns about the replica on its own publish; wait for
	// health so the first workload requests do not race the boot.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(r.baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return r, nil
}

func (f *fleet) boot() error {
	f.slots = make([]*replica, f.cfg.Replicas)
	for i := range f.slots {
		r, err := f.start(i, 0)
		if err != nil {
			return err
		}
		f.slots[i] = r
	}
	return nil
}

// killRestart SIGKILLs the replica in slot and boots a fresh
// incarnation in its place — the churn loop's single step.
func (f *fleet) killRestart(slot int) {
	f.mu.Lock()
	old := f.slots[slot]
	f.mu.Unlock()
	_ = old.cmd.Process.Kill()
	f.kills.Add(1)
	r, err := f.start(slot, old.incarnation+1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmsoak: restart slot %d: %v\n", slot, err)
		return
	}
	f.mu.Lock()
	f.slots[slot] = r
	f.mu.Unlock()
	f.restarts.Add(1)
}

func (f *fleet) live() []*replica {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*replica, 0, len(f.slots))
	for _, r := range f.slots {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

func (f *fleet) stopAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.slots {
		if r != nil {
			_ = r.cmd.Process.Kill()
		}
	}
}

// ---------------------------------------------------------------------------
// Metrics scraper: replicas die mid-run, so counters are accumulated
// per slot:incarnation and summed at the end. A SIGKILLed incarnation
// contributes its last successful scrape — a sub-second undercount that
// is fine for a soak report.

type scraper struct {
	mu   sync.Mutex
	last map[string]map[string]int64 // "slot:inc" -> counter name -> value
}

func newScraper() *scraper { return &scraper{last: map[string]map[string]int64{}} }

func (s *scraper) scrape(f *fleet) {
	for _, r := range f.live() {
		resp, err := http.Get(r.baseURL + "/metrics")
		if err != nil {
			continue
		}
		var snap obs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			continue
		}
		key := fmt.Sprintf("%d:%d", r.slot, r.incarnation)
		s.mu.Lock()
		s.last[key] = snap.Counters
		s.mu.Unlock()
	}
}

// total sums a counter across every incarnation ever scraped.
func (s *scraper) total(counter string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, counters := range s.last {
		n += counters[counter]
	}
	return n
}

// ---------------------------------------------------------------------------
// Workload.

type opSample struct {
	op string
	ms float64
}

type workload struct {
	cfg      config
	client   *core.Client
	sessPool *resilience.Pool
	clfPool  *resilience.Pool
	policy   func(worker int) *resilience.Policy

	token   string
	unl     *dataset.Dataset // unlabelled BreastCancer rows for classify
	view    *dataset.View    // columnar selection for classifyBatch
	trains  []core.TrainOptions
	batches []*dataset.View

	total  atomic.Int64
	failed atomic.Int64
	byOp   sync.Map // op -> *atomic.Int64
}

func (w *workload) count(op string) {
	v, _ := w.byOp.LoadOrStore(op, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

// pickSlot is the churn loop's deterministic choice of victim.
func pickSlot(rng *rand.Rand, n int) int { return rng.Intn(n) }

// worker runs the op mix until ctx ends, recording every completed
// operation's latency and every client-visible failure.
func (w *workload) worker(ctx context.Context, id int, samples *[]opSample) {
	rng := rand.New(rand.NewSource(w.cfg.Seed + 1000*int64(id)))
	pol := w.policy(id)
	for ctx.Err() == nil {
		roll := rng.Float64()
		var op string
		var err error
		start := time.Now()
		switch {
		case roll < 0.2:
			op = "train"
			to := w.trains[rng.Intn(len(w.trains))]
			_, err = w.clfPool.Do(ctx, pol, nil, func(ctx context.Context, ep string) error {
				_, terr := w.client.At(ep).Train(ctx, to)
				return terr
			})
		case roll < 0.6:
			op = "classify"
			err = w.classify(ctx, pol)
		default:
			op = "classify_batch"
			err = w.classifyBatch(ctx, pol, w.batches[rng.Intn(len(w.batches))])
		}
		if ctx.Err() != nil {
			return // deadline hit mid-call: not a workload failure
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		w.total.Add(1)
		w.count(op)
		*samples = append(*samples, opSample{op: op, ms: ms})
		if err != nil {
			w.failed.Add(1)
			fmt.Fprintf(os.Stderr, "dmsoak: worker %d %s failed: %v\n", id, op, err)
		}
		time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
	}
}

func (w *workload) classify(ctx context.Context, pol *resilience.Policy) error {
	_, err := w.sessPool.Do(ctx, pol, nil, func(ctx context.Context, ep string) error {
		_, cerr := w.client.At(ep).Classify(ctx, w.token, w.unl)
		return cerr
	})
	return err
}

func (w *workload) classifyBatch(ctx context.Context, pol *resilience.Policy, v *dataset.View) error {
	_, err := w.sessPool.Do(ctx, pol, nil, func(ctx context.Context, ep string) error {
		_, cerr := w.client.At(ep).ClassifyBatch(ctx, w.token, v)
		return cerr
	})
	return err
}

// ---------------------------------------------------------------------------

func main() {
	cfg := parseFlags(os.Args[1:])
	rep, exit := run(cfg)
	if rep != nil {
		js, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(js))
		if cfg.out != "" {
			if err := os.WriteFile(cfg.out, append(js, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dmsoak: writing %s: %v\n", cfg.out, err)
				exit = 1
			}
		}
	}
	os.Exit(exit)
}

func parseFlags(argv []string) config {
	var cfg config
	fs := flag.NewFlagSet("dmsoak", flag.ExitOnError)
	fs.IntVar(&cfg.Replicas, "replicas", 3, "dmserver replicas sharing the store directory")
	fs.DurationVar(&cfg.Duration, "duration", 60*time.Second, "workload duration")
	fs.DurationVar(&cfg.KillEvery, "kill-every", 10*time.Second, "SIGKILL+restart a random replica at this interval (0 = no churn)")
	fs.IntVar(&cfg.Workers, "workers", 4, "concurrent workload workers")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed for the churn victim picker and the workers' op mix")
	fs.BoolVar(&cfg.Short, "short", false, "deterministic CI shape: 2 replicas, ~6s, kill every 2.5s")
	fs.BoolVar(&cfg.verbose, "v", false, "pass replica stderr through")
	fs.StringVar(&cfg.dmserverBin, "dmserver", "", "prebuilt dmserver binary (default: go build it into a temp dir)")
	fs.StringVar(&cfg.storeDir, "store-dir", "", "shared model store directory (default: a temp dir)")
	fs.DurationVar(&cfg.gcInterval, "store-gc-interval", 2*time.Second, "replicas' background GC sweep interval (0 = replicas run no GC)")
	fs.Int64Var(&cfg.gcMaxDead, "store-gc-max-dead-bytes", 32*1024, "replicas compact once dead bytes exceed this")
	fs.Float64Var(&cfg.gcMaxFrac, "store-gc-max-dead-frac", 0.5, "replicas compact once the dead fraction exceeds this")
	fs.DurationVar(&cfg.gcMaxAge, "store-gc-max-age", 0, "replicas expire stored models older than this (0 = keep)")
	fs.DurationVar(&cfg.deleteEvery, "delete-every", 2*time.Second, "delete stored train-family models at this interval to feed GC (0 = off)")
	fs.Int64Var(&cfg.errorBudget, "error-budget", 0, "max client-visible failures before exit code 1")
	fs.StringVar(&cfg.out, "out", "", "also write the JSON report here")
	_ = fs.Parse(argv)
	if cfg.Short {
		cfg.Replicas = 2
		cfg.Duration = 6 * time.Second
		cfg.KillEvery = 2500 * time.Millisecond
		cfg.Workers = 2
		cfg.gcInterval = time.Second
		cfg.deleteEvery = time.Second
		// Models are a few hundred bytes; drop the byte bound so the
		// replicas' GC demonstrably fires inside the short window.
		cfg.gcMaxDead = 1024
		cfg.gcMaxFrac = 0.2
	}
	cfg.DurationSecs = cfg.Duration.Seconds()
	cfg.KillSecs = cfg.KillEvery.Seconds()
	return cfg
}

func run(cfg config) (*report, int) {
	fail := func(err error) (*report, int) {
		fmt.Fprintf(os.Stderr, "dmsoak: %v\n", err)
		return nil, 1
	}

	if cfg.storeDir == "" {
		dir, err := os.MkdirTemp("", "dmsoak-store")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
		cfg.storeDir = dir
	}
	if cfg.dmserverBin == "" {
		bin, cleanup, err := buildDmserver()
		if err != nil {
			return fail(err)
		}
		defer cleanup()
		cfg.dmserverBin = bin
	}

	// Fresh TTL registry at the root of its own listener — the external
	// dmregistry shape, in-process.
	reg := registry.NewWithTTL(2 * time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	defer ln.Close()
	regSrv := &http.Server{Handler: reg.Handler()}
	go regSrv.Serve(ln)
	defer regSrv.Close()
	sweepStop := make(chan struct{})
	defer close(sweepStop)
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				reg.Sweep()
			case <-sweepStop:
				return
			}
		}
	}()
	regURL := "http://" + ln.Addr().String()

	f := &fleet{cfg: cfg, regURL: regURL}
	fmt.Fprintf(os.Stderr, "dmsoak: booting %d replicas on %s (registry %s)\n",
		cfg.Replicas, cfg.storeDir, regURL)
	if err := f.boot(); err != nil {
		f.stopAll()
		return fail(err)
	}
	defer f.stopAll()

	regClient := &registry.Client{BaseURL: regURL}
	sessPool := resilience.NewPool(nil,
		resilience.WithSource(regClient.EndpointSource("Session", "")),
		resilience.WithRefreshInterval(500*time.Millisecond))
	clfPool := resilience.NewPool(nil,
		resilience.WithSource(regClient.EndpointSource("Classifier", "")),
		resilience.WithRefreshInterval(500*time.Millisecond))

	w := &workload{
		cfg:      cfg,
		client:   core.NewClient("http://unused.invalid"),
		sessPool: sessPool,
		clfPool:  clfPool,
		policy: func(worker int) *resilience.Policy {
			return &resilience.Policy{
				MaxAttempts: 8,
				BackoffBase: 40 * time.Millisecond,
				BackoffMax:  600 * time.Millisecond,
				Seed:        cfg.Seed + int64(worker),
			}
		},
	}

	// Session family: IBk on BreastCancer. The retention worker below
	// deletes every non-IBk model, so keeping the session's algorithm
	// distinct guarantees deletes can never break session restores — the
	// zero-failure bar stays honest while GC still gets fed.
	full := datagen.BreastCancer()
	w.unl = full.Clone()
	for _, in := range w.unl.Instances {
		in.Values[w.unl.ClassIndex] = dataset.Missing
	}
	rows := make([]int, 0, 64)
	for i := 0; i < w.unl.NumInstances() && i < 64; i++ {
		rows = append(rows, i)
	}
	w.view = dataset.NewView(w.unl, rows)
	w.batches = []*dataset.View{w.view, dataset.All(w.unl)}
	// Train family: repeatedly re-trained (content-addressed → store
	// hits) and repeatedly deleted (→ dead bytes → replica GC).
	for _, d := range []*dataset.Dataset{datagen.Weather(), datagen.WeatherNumeric(), datagen.ContactLenses()} {
		for _, algo := range []string{"J48", "NaiveBayes"} {
			w.trains = append(w.trains, core.TrainOptions{Dataset: d, Classifier: algo})
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()

	// Warm up the shared session before churn starts.
	warmCtx, warmCancel := context.WithTimeout(ctx, 30*time.Second)
	_, err = sessPool.Do(warmCtx, w.policy(-1), nil, func(ctx context.Context, ep string) error {
		token, serr := w.client.At(ep).CreateSession(ctx, core.TrainOptions{
			Dataset: full, Classifier: "IBk",
		})
		if serr == nil {
			w.token = token
		}
		return serr
	})
	warmCancel()
	if err != nil {
		return fail(fmt.Errorf("warm-up createSession: %w", err))
	}

	var wg sync.WaitGroup

	// Churn loop: seeded victim picker, SIGKILL + restart.
	if cfg.KillEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed))
			t := time.NewTicker(cfg.KillEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					slot := pickSlot(rng, cfg.Replicas)
					fmt.Fprintf(os.Stderr, "dmsoak: SIGKILL slot %d\n", slot)
					f.killRestart(slot)
				}
			}
		}()
	}

	// Retention worker: its own store handle deletes train-family
	// models so superseded+tombstoned bytes accumulate and the
	// replicas' -store-gc-* sweeps have something to reclaim.
	if cfg.deleteEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, serr := store.Open(cfg.storeDir, store.WithObs(obs.NewRegistry()))
			if serr != nil {
				fmt.Fprintf(os.Stderr, "dmsoak: retention worker: %v\n", serr)
				return
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(cfg.Seed + 7))
			t := time.NewTicker(cfg.deleteEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					_ = s.Refresh()
					for _, e := range s.List() {
						if e.Meta.Algorithm != "IBk" && rng.Float64() < 0.7 {
							_ = s.Delete(e.Key)
						}
					}
				}
			}
		}()
	}

	// Metrics scraper.
	sc := newScraper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				sc.scrape(f)
			}
		}
	}()

	// Workers.
	samples := make([][]opSample, cfg.Workers)
	var ww sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		ww.Add(1)
		go func(id int) {
			defer ww.Done()
			w.worker(ctx, id, &samples[id])
		}(i)
	}
	ww.Wait()
	cancel()
	wg.Wait()

	// Final scrape against whatever is still alive, then stop the fleet
	// so the closing compaction sees a quiet directory.
	sc.scrape(f)
	f.stopAll()
	time.Sleep(200 * time.Millisecond)

	rep := &report{Config: cfg}
	rep.Requests.Total = w.total.Load()
	rep.Requests.Failed = w.failed.Load()
	rep.Requests.ByOp = map[string]int64{}
	w.byOp.Range(func(k, v any) bool {
		rep.Requests.ByOp[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	perOp := map[string][]float64{}
	var all []float64
	for _, s := range samples {
		for _, smp := range s {
			perOp[smp.op] = append(perOp[smp.op], smp.ms)
			all = append(all, smp.ms)
		}
	}
	rep.LatencyMS = map[string]quantiles{"all": summarize(all)}
	for op, v := range perOp {
		rep.LatencyMS[op] = summarize(v)
	}
	rep.Churn.Kills = f.kills.Load()
	rep.Churn.Restarts = f.restarts.Load()
	rep.Store.Hits = sc.total("store_hits_total")
	rep.Store.Misses = sc.total("store_misses_total")
	if t := rep.Store.Hits + rep.Store.Misses; t > 0 {
		rep.Store.HitRatio = float64(rep.Store.Hits) / float64(t)
	}
	rep.Store.Retrains = sc.total("harness_builds_total")
	rep.Resilience.Retries = obs.Default.Snapshot().Counters["resilience_retries_total"]
	for name, v := range obs.Default.Snapshot().Counters {
		if strings.HasPrefix(name, "resilience_breaker_opens_total") {
			rep.Resilience.BreakerOpens += v
		}
	}
	rep.GC.Runs = sc.total("store_gc_runs_total")
	rep.GC.ReclaimedBytes = sc.total("store_gc_reclaimed_bytes_total")

	// Closing compaction: the fleet is dead (flocks released by the
	// kernel), so a fresh handle compacts whatever the run left behind
	// and proves every live record survived the churn.
	s, err := store.Open(cfg.storeDir, store.WithObs(obs.NewRegistry()))
	if err != nil {
		return fail(fmt.Errorf("post-run store open: %w", err))
	}
	st, err := s.Compact()
	if err != nil {
		s.Close()
		return fail(fmt.Errorf("post-run compaction: %w", err))
	}
	rep.GC.FinalCompactReclaims = st.ReclaimedBytes
	rep.GC.ReclaimedBytes += st.ReclaimedBytes
	rep.GC.PostGCBytes = s.Bytes()
	rep.Store.LiveBytes = s.LiveBytes()
	rep.Store.DeadBytes = s.DeadBytes()
	rep.Store.Generation = s.Generation()
	s.Close()

	rep.ErrorBudgetOK = rep.Requests.Failed <= cfg.errorBudget
	exit := 0
	if !rep.ErrorBudgetOK {
		exit = 1
	}
	return rep, exit
}

// buildDmserver compiles cmd/dmserver into a temp dir when the caller
// did not hand us a binary.
func buildDmserver() (bin string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "dmsoak-bin")
	if err != nil {
		return "", nil, err
	}
	bin = filepath.Join(dir, "dmserver")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/dmserver")
	out, err := cmd.CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("building dmserver: %v\n%s", err, out)
	}
	return bin, func() { os.RemoveAll(dir) }, nil
}

// keyFor computes the content address a train-family option lands on —
// exposed for tests pinning the retention worker's reach.
func keyFor(o core.TrainOptions) string {
	class := ""
	if ca := o.Dataset.ClassAttribute(); ca != nil {
		class = ca.Name
	}
	return services.InstanceKey(o.Classifier, o.Options, o.Dataset, class)
}
