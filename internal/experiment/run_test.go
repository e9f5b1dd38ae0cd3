package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/workflow"
)

// specForTest is a 24-job spec: 4 classifiers × 3 configs × 2 datasets.
func specForTest() *Spec {
	return &Spec{
		Name:  "test-sweep",
		Folds: 3,
		Seed:  7,
		Datasets: []DatasetSpec{
			{Name: "breast-cancer", Builtin: "breast-cancer"},
			{Name: "contact-lenses", Builtin: "contact-lenses"},
		},
		Algorithms: []AlgorithmSpec{
			{Name: "J48", Grid: map[string][]string{"confidenceFactor": {"0.1", "0.25", "0.5"}}},
			{Name: "IBk", Grid: map[string][]string{"k": {"1", "3", "5"}}},
			{Name: "OneR", Grid: map[string][]string{"minBucket": {"3", "6", "9"}}},
			{Name: "ZeroR", Grid: map[string][]string{"_rep": {"a", "b", "c"}}},
		},
	}
}

// ZeroR takes no options, so the _rep grid axis used to triplicate it must
// be stripped before configuration.
type dropRepExec struct{ inner Executor }

func (d dropRepExec) Name() string { return d.inner.Name() }
func (d dropRepExec) Execute(ctx context.Context, t *Tries, job Job, ds *dataset.Dataset) (Metrics, error) {
	if _, ok := job.Options["_rep"]; ok {
		opts := map[string]string{}
		for k, v := range job.Options {
			if k != "_rep" {
				opts[k] = v
			}
		}
		job.Options = opts
	}
	return d.inner.Execute(ctx, t, job, ds)
}

// flakyExec fails the first failures attempts of every job with a
// transient error, then runs the attempt locally.
type flakyExec struct {
	failures int

	mu       sync.Mutex
	attempts map[string]int
}

func (f *flakyExec) Name() string { return "flaky" }
func (f *flakyExec) Execute(ctx context.Context, t *Tries, job Job, d *dataset.Dataset) (Metrics, error) {
	return t.Do(ctx, func(ctx context.Context) (Metrics, error) {
		f.mu.Lock()
		if f.attempts == nil {
			f.attempts = map[string]int{}
		}
		f.attempts[job.ID]++
		n := f.attempts[job.ID]
		f.mu.Unlock()
		if n <= f.failures {
			return Metrics{}, resilience.Transient(fmt.Errorf("injected failure %d for %s", n, job.ID))
		}
		return Local{}.Attempt(ctx, job, d)
	})
}

func mustExpand(t *testing.T, s *Spec) ([]Job, map[string]*dataset.Dataset) {
	t.Helper()
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return jobs, data
}

func TestSpecExpansion(t *testing.T) {
	jobs, data := mustExpand(t, specForTest())
	if len(jobs) != 24 {
		t.Fatalf("expanded %d jobs, want 24", len(jobs))
	}
	if len(data) != 2 {
		t.Fatalf("materialized %d datasets, want 2", len(data))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate job ID %s", j.ID)
		}
		seen[j.ID] = true
	}
	// Expansion is deterministic: same spec, same IDs in the same order.
	again, _ := specForTest().Expand()
	for i := range jobs {
		if jobs[i].ID != again[i].ID {
			t.Fatalf("expansion not deterministic at %d: %s vs %s", i, jobs[i].ID, again[i].ID)
		}
	}
	wantID := "classify:breast-cancer/J48[confidenceFactor=0.1]"
	if jobs[0].ID != wantID {
		t.Fatalf("first job ID %q, want %q", jobs[0].ID, wantID)
	}
}

func TestRunFullBatch(t *testing.T) {
	jobs, data := mustExpand(t, specForTest())
	results, err := Run(context.Background(), &workflow.Engine{Workers: 8}, jobs, data, dropRepExec{Local{}}, Retry{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results, want %d", len(results), len(jobs))
	}
	for _, res := range results {
		if res.Status != StatusOK {
			t.Errorf("job %s: status %s (%s)", res.Job.ID, res.Status, res.Err)
		}
		if res.Metrics.Accuracy <= 0 {
			t.Errorf("job %s: accuracy %v, want > 0", res.Job.ID, res.Metrics.Accuracy)
		}
	}
	groups := Aggregate(results)
	if len(groups) != 4 {
		t.Fatalf("%d ranking groups, want 4", len(groups))
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].MeanAcc > groups[i-1].MeanAcc {
			t.Fatalf("ranking not sorted: %v before %v", groups[i-1], groups[i])
		}
	}
	report := Report(results)
	if !strings.Contains(report, "=== Ranking") || !strings.Contains(report, "J48") {
		t.Fatalf("report missing expected sections:\n%s", report)
	}
}

// TestRetryTransientFailures is the failure-injection test: an executor
// that fails the first two attempts of every job must still bring the
// batch home via backoff retries, and the attempt counts must surface in
// the per-job results and in resilience_retries_total.
func TestRetryTransientFailures(t *testing.T) {
	spec := specForTest()
	spec.Datasets = spec.Datasets[1:] // contact-lenses only: 12 jobs
	jobs, data := mustExpand(t, spec)
	retries := obs.Default.Counter("resilience_retries_total")
	retriesBefore := retries.Value()
	e := &workflow.Engine{Workers: 4}
	r := Retry{MaxRetries: 3, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}
	flaky := dropRepExec{&flakyExec{failures: 2}}
	results, err := Run(context.Background(), e, jobs, data, flaky, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Status != StatusOK {
			t.Fatalf("job %s failed after retries: %s", res.Job.ID, res.Err)
		}
		if res.Attempts != 3 {
			t.Fatalf("job %s took %d attempts, want 3", res.Job.ID, res.Attempts)
		}
	}
	if got := retries.Value() - retriesBefore; got != int64(2*len(jobs)) {
		t.Fatalf("counted %d retries, want %d", got, 2*len(jobs))
	}
	for _, g := range Aggregate(results) {
		if g.Retried != g.Jobs {
			t.Fatalf("group %s: %d/%d jobs marked retried", g.Algorithm, g.Retried, g.Jobs)
		}
	}
}

// Permanent errors must fail immediately without burning retries.
func TestRetryNotOnPermanentErrors(t *testing.T) {
	spec := &Spec{
		Name:       "bad",
		Datasets:   []DatasetSpec{{Name: "weather", Builtin: "weather"}},
		Algorithms: []AlgorithmSpec{{Name: "NoSuchClassifier"}},
	}
	jobs, data := mustExpand(t, spec)
	r := Retry{MaxRetries: 5, BackoffBase: time.Millisecond}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 2}, jobs, data, Local{}, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Status != StatusFailed {
		t.Fatalf("want one failed result, got %+v", results)
	}
	if results[0].Attempts != 1 {
		t.Fatalf("permanent error took %d attempts, want 1", results[0].Attempts)
	}
}

// TestBatchResumesFromJournal kills a batch part-way (via a monitor that
// cancels the run after enough completions) and asserts the resumed run
// executes only the remaining jobs.
func TestBatchResumesFromJournal(t *testing.T) {
	jobs, data := mustExpand(t, specForTest())
	journalPath := filepath.Join(t.TempDir(), "batch.jsonl")

	// Phase 1: cancel the batch after 5 successes — the "kill".
	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Int64
	jl, err := workflow.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := &workflow.Engine{
		Workers: 2,
		Monitor: func(ev workflow.Event) {
			if ev.Kind == workflow.TaskFinished && completed.Add(1) == 5 {
				cancel()
			}
		},
	}
	_, err = Run(ctx, e, jobs, data, dropRepExec{Local{}}, Retry{}, jl)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	// Count the completed jobs the journal checkpointed.
	jl2, err := workflow.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	okBefore := 0
	for _, rec := range jl2.Records() {
		if rec.Status == StatusOK {
			okBefore++
		}
	}
	if okBefore < 5 {
		t.Fatalf("journal has %d completed jobs, want >= 5", okBefore)
	}

	// Phase 2: resume. A counting executor proves only the remainder runs.
	var executed atomic.Int64
	counting := countingExec{inner: dropRepExec{Local{}}, n: &executed}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 8}, jobs, data, counting, Retry{}, jl2)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(executed.Load()); got != len(jobs)-okBefore {
		t.Fatalf("resume executed %d jobs, want %d (skipping %d journaled)",
			got, len(jobs)-okBefore, okBefore)
	}
	skipped := 0
	for _, res := range results {
		switch res.Status {
		case StatusSkipped:
			skipped++
			if res.Metrics.Accuracy <= 0 {
				t.Fatalf("skipped job %s lost its journaled metrics", res.Job.ID)
			}
		case StatusOK:
		default:
			t.Fatalf("job %s: status %s (%s)", res.Job.ID, res.Status, res.Err)
		}
	}
	if skipped != okBefore {
		t.Fatalf("%d skipped results, want %d", skipped, okBefore)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results, want %d", len(results), len(jobs))
	}
	// The journal now covers the whole batch: okBefore + the remainder
	// (plus any failure records from the interrupted phase).
	okAfter := 0
	for _, rec := range jl2.Records() {
		if rec.Status == StatusOK {
			okAfter++
		}
	}
	if okAfter != len(jobs) {
		t.Fatalf("journal holds %d completed jobs, want %d", okAfter, len(jobs))
	}
}

type countingExec struct {
	inner Executor
	n     *atomic.Int64
}

func (c countingExec) Name() string { return "counting" }
func (c countingExec) Execute(ctx context.Context, t *Tries, job Job, d *dataset.Dataset) (Metrics, error) {
	c.n.Add(1)
	return c.inner.Execute(ctx, t, job, d)
}

// Per-attempt timeouts must count as transient: a slow first attempt is
// retried and a fast second attempt completes the job.
func TestRetryAttemptTimeout(t *testing.T) {
	spec := &Spec{
		Name:       "timeout",
		Datasets:   []DatasetSpec{{Name: "weather", Builtin: "weather"}},
		Algorithms: []AlgorithmSpec{{Name: "ZeroR"}},
	}
	jobs, data := mustExpand(t, spec)
	slow := &slowFirstExec{}
	r := Retry{JobTimeout: 30 * time.Millisecond, MaxRetries: 1, BackoffBase: time.Millisecond}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 1}, jobs, data, slow, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusOK {
		t.Fatalf("job %s: %s (%s)", results[0].Job.ID, results[0].Status, results[0].Err)
	}
	if results[0].Attempts != 2 {
		t.Fatalf("job took %d attempts, want 2 (timeout then success)", results[0].Attempts)
	}
}

type slowFirstExec struct {
	calls atomic.Int64
}

func (s *slowFirstExec) Name() string { return "slow-first" }
func (s *slowFirstExec) Execute(ctx context.Context, t *Tries, job Job, d *dataset.Dataset) (Metrics, error) {
	return t.Do(ctx, func(ctx context.Context) (Metrics, error) {
		if s.calls.Add(1) == 1 {
			<-ctx.Done() // hang until the attempt deadline fires
			return Metrics{}, ctx.Err()
		}
		return Local{}.Attempt(ctx, job, d)
	})
}

// Smoke-check every builtin dataset materializes and a cluster + attrsel
// job runs through the local executor.
func TestLocalExecutorOtherTasks(t *testing.T) {
	spec := &Spec{
		Name:  "tasks",
		Seed:  3,
		Folds: 2,
		Datasets: []DatasetSpec{
			{Name: "iris", Builtin: "iris"},
		},
		Algorithms: []AlgorithmSpec{
			{Task: taskCluster, Name: "SimpleKMeans", Grid: map[string][]string{"k": {"3"}}},
			{Task: taskAttrSel, Name: "InfoGain"},
		},
	}
	jobs, data := mustExpand(t, spec)
	results, err := Run(context.Background(), &workflow.Engine{Workers: 2}, jobs, data, Local{}, Retry{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Status != StatusOK {
			t.Fatalf("job %s: %s (%s)", res.Job.ID, res.Status, res.Err)
		}
		if len(res.Metrics.Extra) == 0 {
			t.Fatalf("job %s reported no extra metrics", res.Job.ID)
		}
	}
}

func TestInlineAndFileDatasets(t *testing.T) {
	inline := "@relation tiny\n@attribute a {x,y}\n@attribute class {p,n}\n@data\nx,p\ny,n\nx,p\ny,n\n"
	path := filepath.Join(t.TempDir(), "tiny.arff")
	if err := os.WriteFile(path, []byte(inline), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Name:  "sources",
		Folds: 2,
		Datasets: []DatasetSpec{
			{Name: "inline", ARFF: inline},
			{Name: "file", Path: path, Class: "class"},
		},
		Algorithms: []AlgorithmSpec{{Name: "ZeroR"}},
	}
	jobs, data := mustExpand(t, spec)
	if len(jobs) != 2 {
		t.Fatalf("%d jobs, want 2", len(jobs))
	}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 2}, jobs, data, Local{}, Retry{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Status != StatusOK {
			t.Fatalf("job %s: %s (%s)", res.Job.ID, res.Status, res.Err)
		}
	}
}

// A batch whose journal cannot record a job's outcome reports that as
// Run's error, not as a job failure.
func TestBatchReportsJournalFailure(t *testing.T) {
	jobs, data := mustExpand(t, &Spec{
		Name:       "unjournaled",
		Datasets:   []DatasetSpec{{Name: "weather", Builtin: "weather"}},
		Algorithms: []AlgorithmSpec{{Name: "ZeroR"}, {Name: "OneR"}},
	})
	jl, err := workflow.OpenJournal(filepath.Join(t.TempDir(), "batch.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	jl.Close() // every Append now fails
	_, err = Run(context.Background(), &workflow.Engine{Workers: 1}, jobs, data, Local{}, Retry{}, jl)
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Run = %v, want the journal's write error", err)
	}
}
