package workflow

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// invokeCounts tracks how many times each step's unit actually executed,
// standing in for the server-side op counters of the e2e drill.
type invokeCounts struct {
	mu sync.Mutex
	m  map[string]int
}

func newInvokeCounts() *invokeCounts { return &invokeCounts{m: map[string]int{}} }

func (c *invokeCounts) inc(id string) {
	c.mu.Lock()
	c.m[id]++
	c.mu.Unlock()
}

func (c *invokeCounts) get(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[id]
}

// crashCtl makes the run die (context cancelled, like a SIGKILL tearing
// the process out from under the engine) as the (after+1)-th unit
// execution begins — i.e. after exactly `after` steps were journaled.
type crashCtl struct {
	after  int64
	ran    atomic.Int64
	cancel context.CancelFunc
}

// refWorkflow builds the reference 5-step workflow: a diamond
// (load → split → {train, probe} → join) whose outputs are deterministic
// functions of the inputs.
func refWorkflow(counts *invokeCounts, crash *crashCtl) *Graph {
	step := func(id string, in, out []string, fn func(Values) Values) *FuncUnit {
		return &FuncUnit{UnitName: "unit-" + id, In: in, Out: out,
			Fn: func(ctx context.Context, v Values) (Values, error) {
				if crash != nil && crash.ran.Add(1) > crash.after {
					crash.cancel()
					return nil, ctx.Err()
				}
				counts.inc(id)
				return fn(v), nil
			}}
	}
	g := NewGraph("ref")
	g.MustAdd("load", step("load", nil, []string{"data"}, func(v Values) Values {
		return Values{"data": "rows:1,2,3,4"}
	}))
	g.MustAdd("split", step("split", []string{"data"}, []string{"train", "test"}, func(v Values) Values {
		return Values{"train": v["data"] + "/train", "test": v["data"] + "/test"}
	}))
	g.MustAdd("train", step("train", []string{"train"}, []string{"model"}, func(v Values) Values {
		return Values{"model": "model(" + v["train"] + ")"}
	}))
	g.MustAdd("probe", step("probe", []string{"test"}, []string{"stats"}, func(v Values) Values {
		return Values{"stats": "stats(" + v["test"] + ")"}
	}))
	g.MustAdd("join", step("join", []string{"model", "stats"}, []string{"report"}, func(v Values) Values {
		return Values{"report": v["model"] + "+" + v["stats"]}
	}))
	g.MustConnect("load", "data", "split", "data")
	g.MustConnect("split", "train", "train", "train")
	g.MustConnect("split", "test", "probe", "test")
	g.MustConnect("train", "model", "join", "model")
	g.MustConnect("probe", "stats", "join", "stats")
	return g
}

func seqEngine() *Engine {
	return &Engine{Workers: 1, Observer: obs.NewRegistry()}
}

// TestResumeAfterCrashAtEveryStep is the SIGKILL-at-every-step sweep:
// for each step boundary of the reference workflow, a run dies after
// journaling exactly n steps; reopening the journal and resuming must
// (a) complete, (b) re-invoke none of the journaled-complete steps —
// proven by fresh invocation counters — and (c) produce outputs
// byte-equal to an uninterrupted run.
func TestResumeAfterCrashAtEveryStep(t *testing.T) {
	// The uninterrupted reference run.
	refCounts := newInvokeCounts()
	refRes, err := NewEngine().Run(context.Background(), refWorkflow(refCounts, nil))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5

	for n := 0; n <= steps; n++ {
		n := n
		t.Run(fmt.Sprintf("crash-after-%d", n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wf.jsonl")
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			crash := &crashCtl{after: int64(n), cancel: cancel}
			crashCounts := newInvokeCounts()
			_, runErr := seqEngine().Resume(ctx, refWorkflow(crashCounts, crash), j)
			cancel()
			j.Close()
			if n < steps && runErr == nil {
				t.Fatalf("crash run with n=%d completed", n)
			}
			if n == steps && runErr != nil {
				t.Fatalf("full run failed: %v", runErr)
			}

			// "New process": reopen the journal from disk, fresh counters.
			// The crash may also have left a StepFailed record for the step
			// it interrupted; only StepOK records count as durable progress.
			j2, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			var okRecs []StepRecord
			for _, rec := range j2.Records() {
				if rec.Status == StepOK {
					okRecs = append(okRecs, rec)
				}
			}
			if len(okRecs) != n {
				t.Fatalf("journal holds %d completed records after crash, want %d", len(okRecs), n)
			}
			resumeCounts := newInvokeCounts()
			res, err := seqEngine().Resume(context.Background(), refWorkflow(resumeCounts, nil), j2)
			if err != nil {
				t.Fatalf("resume after crash at %d: %v", n, err)
			}
			if !reflect.DeepEqual(res.Outputs, refRes.Outputs) {
				t.Fatalf("resumed outputs differ from uninterrupted run:\n got %v\nwant %v", res.Outputs, refRes.Outputs)
			}
			// Journaled-complete steps must not have been re-invoked.
			for _, rec := range okRecs {
				if got := resumeCounts.get(rec.Step); got != 0 {
					t.Fatalf("journaled step %q re-invoked %d time(s) on resume", rec.Step, got)
				}
			}
			// And no step may ever run more than once in the resumed process.
			for _, id := range []string{"load", "split", "train", "probe", "join"} {
				if got := resumeCounts.get(id); got > 1 {
					t.Fatalf("step %q ran %d times on resume", id, got)
				}
			}
		})
	}
}

// TestResumeInvalidatesOnInputChange: a journaled step whose inputs
// changed (here via an edited param) is re-executed, and so is every
// step downstream whose own inputs change as a result; an untouched
// parallel branch still replays.
func TestResumeInvalidatesOnInputChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.jsonl")
	build := func(counts *invokeCounts, salt string) *Graph {
		step := func(id string, in, out []string, fn func(Values) Values) *FuncUnit {
			return &FuncUnit{UnitName: "unit-" + id, In: in, Out: out,
				Fn: func(ctx context.Context, v Values) (Values, error) {
					counts.inc(id)
					return fn(v), nil
				}}
		}
		g := NewGraph("inval")
		g.MustAdd("src", step("src", nil, []string{"x"}, func(v Values) Values {
			return Values{"x": "1"}
		}))
		g.MustAdd("mid", step("mid", []string{"x"}, []string{"y"}, func(v Values) Values {
			return Values{"y": v["x"] + "-" + v["salt"]}
		}))
		g.MustAdd("sink", step("sink", []string{"y"}, []string{"z"}, func(v Values) Values {
			return Values{"z": "z(" + v["y"] + ")"}
		}))
		g.MustAdd("side", step("side", nil, []string{"s"}, func(v Values) Values {
			return Values{"s": "side"}
		}))
		g.MustConnect("src", "x", "mid", "x")
		g.MustConnect("mid", "y", "sink", "y")
		g.Task("mid").Params["salt"] = salt
		return g
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seqEngine().Resume(context.Background(), build(newInvokeCounts(), "v1"), j); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	counts := newInvokeCounts()
	res, err := seqEngine().Resume(context.Background(), build(counts, "v2"), j2)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]int{
		"src": 0, "side": 0, // unchanged: replayed
		"mid":  1, // param edited: digest mismatch, re-run
		"sink": 1, // upstream output changed: digest mismatch, re-run
	} {
		if got := counts.get(id); got != want {
			t.Fatalf("step %q ran %d time(s), want %d", id, got, want)
		}
	}
	if v, _ := res.Value("sink", "z"); v != "z(1-v2)" {
		t.Fatalf("stale output survived the param edit: %q", v)
	}
}

// TestResumeParallelEngine: the journal holds under the parallel
// scheduler too — a second resumed run replays every step.
func TestResumeParallelEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Observer = obs.NewRegistry()
	first, err := e.Resume(context.Background(), refWorkflow(newInvokeCounts(), nil), j)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	counts := newInvokeCounts()
	reg := obs.NewRegistry()
	e2 := NewEngine()
	e2.Observer = reg
	var replayed atomic.Int64
	e2.Monitor = func(ev Event) {
		if ev.Kind == TaskReplayed {
			replayed.Add(1)
		}
	}
	res, err := e2.Resume(context.Background(), refWorkflow(counts, nil), j2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Outputs, first.Outputs) {
		t.Fatalf("replayed outputs differ: %v vs %v", res.Outputs, first.Outputs)
	}
	for id := range counts.m {
		t.Fatalf("step %q executed on a fully-journaled resume", id)
	}
	if replayed.Load() != 5 {
		t.Fatalf("replayed %d steps, want 5", replayed.Load())
	}
	if got := reg.Snapshot().Counters["workflow_steps_resumed_total"]; got != 5 {
		t.Fatalf("workflow_steps_resumed_total = %d, want 5", got)
	}
}

// TestResumeRecordsFailures: a failing step journals a failed record
// (not a completed one) and is retried by the next resume.
func TestResumeRecordsFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.jsonl")
	var fail atomic.Bool
	fail.Store(true)
	build := func(counts *invokeCounts) *Graph {
		g := NewGraph("flaky")
		g.MustAdd("only", &FuncUnit{UnitName: "only", Out: []string{"v"},
			Fn: func(ctx context.Context, in Values) (Values, error) {
				counts.inc("only")
				if fail.Load() {
					return nil, errors.New("transient")
				}
				return Values{"v": "ok"}, nil
			}})
		return g
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seqEngine().Resume(context.Background(), build(newInvokeCounts()), j); err == nil {
		t.Fatal("failing run reported success")
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := j2.Records()
	if len(recs) != 1 || recs[0].Status != StepFailed || recs[0].Error == "" {
		t.Fatalf("journal after failure = %+v", recs)
	}
	fail.Store(false)
	counts := newInvokeCounts()
	if _, err := seqEngine().Resume(context.Background(), build(counts), j2); err != nil {
		t.Fatal(err)
	}
	if counts.get("only") != 1 {
		t.Fatalf("failed step re-ran %d time(s), want 1", counts.get("only"))
	}
}

// TestDeadlineBudgetSlicesCriticalPath: under a caller deadline, an
// upstream step of a 3-deep chain gets roughly remaining/3, and the sink
// step the full remainder.
func TestDeadlineBudgetSlicesCriticalPath(t *testing.T) {
	type seen struct {
		mu  sync.Mutex
		dls map[string]time.Time
	}
	s := &seen{dls: map[string]time.Time{}}
	mk := func(id string, in, out []string) *FuncUnit {
		return &FuncUnit{UnitName: id, In: in, Out: out,
			Fn: func(ctx context.Context, v Values) (Values, error) {
				if dl, ok := ctx.Deadline(); ok {
					s.mu.Lock()
					s.dls[id] = dl
					s.mu.Unlock()
				}
				o := Values{}
				for _, p := range out {
					o[p] = "v"
				}
				return o, nil
			}}
	}
	g := NewGraph("chain")
	g.MustAdd("a", mk("a", nil, []string{"x"}))
	g.MustAdd("b", mk("b", []string{"x"}, []string{"y"}))
	g.MustAdd("c", mk("c", []string{"y"}, []string{"z"}))
	g.MustConnect("a", "x", "b", "x")
	g.MustConnect("b", "y", "c", "y")

	overall := time.Now().Add(30 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), overall)
	defer cancel()
	if _, err := seqEngine().Run(ctx, g); err != nil {
		t.Fatal(err)
	}
	if len(s.dls) != 3 {
		t.Fatalf("saw %d deadlines, want 3", len(s.dls))
	}
	// a (height 3) gets ~1/3 of the budget, b (height 2) ~1/2 of what's
	// left, and c (height 1, the sink) everything remaining.
	if got := time.Until(s.dls["a"]); got > 12*time.Second {
		t.Fatalf("step a budget %v, want ~10s of a 30s budget", got)
	}
	if got := time.Until(s.dls["b"]); got > 17*time.Second {
		t.Fatalf("step b budget %v, want ~15s", got)
	}
	if !s.dls["c"].Equal(overall) {
		t.Fatalf("sink step deadline %v, want the caller's %v", s.dls["c"], overall)
	}
	// The ordering must hold: a's slice ends before b's, b's before c's.
	if !s.dls["a"].Before(s.dls["b"]) || !s.dls["b"].Before(s.dls["c"]) {
		t.Fatalf("budget deadlines not increasing along the chain: %v", s.dls)
	}
}

// TestDeadlineBudgetFailsSlowStepEarly: a step that would eat the whole
// caller budget is cut off at its slice, so the failure surfaces in
// ~remaining/height rather than at the full deadline.
func TestDeadlineBudgetFailsSlowStepEarly(t *testing.T) {
	g := NewGraph("slowchain")
	g.MustAdd("slow", &FuncUnit{UnitName: "slow", Out: []string{"x"},
		Fn: func(ctx context.Context, in Values) (Values, error) {
			select {
			case <-time.After(5 * time.Second):
				return Values{"x": "v"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}})
	g.MustAdd("after", &FuncUnit{UnitName: "after", In: []string{"x"}, Out: []string{"y"},
		Fn: func(ctx context.Context, in Values) (Values, error) {
			return Values{"y": "v"}, nil
		}})
	g.MustConnect("slow", "x", "after", "x")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	began := time.Now()
	_, err := seqEngine().Run(ctx, g)
	elapsed := time.Since(began)
	if err == nil {
		t.Fatal("slow chain completed inside an impossible budget")
	}
	// slice = 2s/2 = 1s; generous upper bound well under the 2s deadline.
	if elapsed > 1800*time.Millisecond {
		t.Fatalf("slow step survived %v, budget slice should have cut it at ~1s", elapsed)
	}
}

// TestJournalFailureHaltsRun: a step whose outcome the journal cannot
// persist fails the run with the journal's error, and no further step
// starts.
func TestJournalFailureHaltsRun(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "wf.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close() // every Append now fails
	counts := newInvokeCounts()
	g := NewGraph("halt")
	for _, id := range []string{"a", "b", "c"} {
		g.MustAdd(id, &FuncUnit{UnitName: id, Out: []string{"v"},
			Fn: func(ctx context.Context, in Values) (Values, error) {
				counts.inc(id)
				return Values{"v": id}, nil
			}})
	}
	_, err = seqEngine().Resume(context.Background(), g, j)
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Resume = %v, want the journal's write error", err)
	}
	if counts.get("a") != 1 || counts.get("b")+counts.get("c") != 0 {
		t.Fatalf("ran a %d, b %d, c %d times; want only a, once", counts.get("a"), counts.get("b"), counts.get("c"))
	}
}
