package workflow

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

var wfLog = obs.L("workflow")

// EventKind labels a monitoring event.
type EventKind int

const (
	// TaskStarted fires when a task begins executing.
	TaskStarted EventKind = iota
	// TaskFinished fires on success.
	TaskFinished
	// TaskFailed fires when an attempt fails.
	TaskFailed
	// TaskRetried fires when execution moves to an alternate unit — the
	// paper's job migration on fault.
	TaskRetried
	// TaskReplayed fires when a resumed run restores a step's outputs
	// from the journal instead of re-invoking its unit.
	TaskReplayed
)

// String renders the event kind.
func (k EventKind) String() string {
	switch k {
	case TaskStarted:
		return "started"
	case TaskFinished:
		return "finished"
	case TaskFailed:
		return "failed"
	case TaskRetried:
		return "retried"
	case TaskReplayed:
		return "replayed"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one progress notification (§3's service-monitoring
// requirement: "allow users to monitor the progress of their jobs").
type Event struct {
	Kind     EventKind
	TaskID   string
	UnitName string
	Attempt  int
	Err      error
	Duration time.Duration
}

// Monitor receives events; it must be safe for concurrent use.
type Monitor func(Event)

// Engine executes workflow graphs.
type Engine struct {
	// Parallel enables concurrent execution of ready tasks (default true
	// via NewEngine).
	Parallel bool
	// Monitor, when set, receives progress events.
	Monitor Monitor
	// Observer receives the engine's metrics; nil means obs.Default.
	Observer *obs.Registry
	// BudgetDeadlines splits a caller deadline across the critical path
	// of the unfinished DAG (default true via NewEngine): each step runs
	// under remaining/critical-path-length of the caller's budget, so one
	// slow step fails its own slice instead of silently starving every
	// successor of time. Steps that finish early return their unused
	// slice to the pool — the split is recomputed from the real clock at
	// every step start.
	BudgetDeadlines bool
}

// NewEngine returns a parallel engine with deadline budgeting on.
func NewEngine() *Engine { return &Engine{Parallel: true, BudgetDeadlines: true} }

func (e *Engine) obsReg() *obs.Registry {
	if e.Observer != nil {
		return e.Observer
	}
	return obs.Default
}

func (e *Engine) emit(ev Event) {
	if e.Monitor != nil {
		e.Monitor(ev)
	}
}

// Result holds the output values of every executed task.
type Result struct {
	// Outputs[taskID][port] is the port's value.
	Outputs map[string]Values
}

// Value returns an output value, with ok reporting presence.
func (r *Result) Value(taskID, port string) (string, bool) {
	vs, ok := r.Outputs[taskID]
	if !ok {
		return "", false
	}
	v, ok := vs[port]
	return v, ok
}

// Run executes the graph: tasks start as soon as every cabled input is
// available; independent tasks run concurrently when Parallel is set.
// Params provide values for unconnected input nodes. Task failures abort
// the run after exhausting alternates.
func (e *Engine) Run(ctx context.Context, g *Graph) (*Result, error) {
	return e.run(ctx, g, nil)
}

// Resume executes the graph under a step journal. Steps the journal
// records as completed with a matching input digest are replayed — their
// output Values restored without re-invoking the unit — and every step
// that does run appends its terminal outcome to the journal. A fresh
// journal makes Resume a journaled first run; reopening the journal of a
// killed run re-executes only the steps the crash lost. The journal is a
// memo table, not a transcript: a step whose inputs changed since it was
// journaled (edited params, a re-run upstream step with different
// outputs) is re-executed, and everything downstream of it follows.
func (e *Engine) Resume(ctx context.Context, g *Graph, j *Journal) (*Result, error) {
	if j == nil {
		return nil, fmt.Errorf("workflow: Resume needs a journal")
	}
	return e.run(ctx, g, j)
}

func (e *Engine) run(ctx context.Context, g *Graph, j *Journal) (*Result, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	began := time.Now()
	ctx, runSpan := obs.StartSpan(ctx, "workflow", "run:"+g.Name)
	runSpan.SetAttr("tasks", strconv.Itoa(len(order)))
	var runErr error
	defer func() { runSpan.End(runErr) }()
	res := &Result{Outputs: map[string]Values{}}
	var mu sync.Mutex // guards res.Outputs

	// waits[taskID] = number of distinct upstream tasks still pending.
	waits := map[string]int{}
	dependents := map[string][]string{}
	for _, id := range order {
		preds := g.predecessors(id)
		waits[id] = len(preds)
		for _, p := range preds {
			dependents[p] = append(dependents[p], id)
		}
	}
	heights := criticalHeights(order, dependents, j)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errCh := make(chan error, len(order))
	doneCh := make(chan string, len(order))
	var wg sync.WaitGroup

	start := func(id string) {
		wg.Add(1)
		run := func() {
			defer wg.Done()
			if runCtx.Err() != nil {
				return
			}
			out, err := e.execTask(runCtx, g, id, res, &mu, j, heights[id])
			if err != nil {
				errCh <- fmt.Errorf("workflow: task %q: %w", id, err)
				cancel()
				return
			}
			mu.Lock()
			res.Outputs[id] = out
			mu.Unlock()
			doneCh <- id
		}
		if e.Parallel {
			go run()
		} else {
			run()
		}
	}

	pendingCount := len(order)
	pending := e.obsReg().Gauge("workflow_pending_tasks")
	pending.Set(int64(pendingCount))
	for _, id := range order {
		if waits[id] == 0 {
			start(id)
		}
	}
	if pendingCount == 0 {
		return res, nil
	}
	finished := 0
	var firstErr error
	for finished < pendingCount && firstErr == nil {
		select {
		case id := <-doneCh:
			finished++
			pending.Set(int64(pendingCount - finished))
			for _, dep := range dependents[id] {
				waits[dep]--
				if waits[dep] == 0 {
					start(dep)
				}
			}
		case err := <-errCh:
			firstErr = err
		case <-ctx.Done():
			firstErr = ctx.Err()
		}
	}
	cancel()
	wg.Wait()
	if firstErr != nil {
		runErr = firstErr
		return nil, firstErr
	}
	wfLog.Info(ctx, "run", "graph", g.Name, "tasks", len(order),
		"dur_ms", float64(time.Since(began))/float64(time.Millisecond))
	return res, nil
}

// criticalHeights computes, per task, the length in steps of the longest
// downstream chain that still has to execute (the task itself included).
// Steps the journal already holds complete count zero: they replay in
// microseconds, so the deadline split concerns only the unfinished DAG.
func criticalHeights(order []string, dependents map[string][]string, j *Journal) map[string]int {
	h := make(map[string]int, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		max := 0
		for _, d := range dependents[id] {
			if h[d] > max {
				max = h[d]
			}
		}
		self := 1
		if j != nil {
			if _, done := j.Completed(id); done {
				self = 0
			}
		}
		h[id] = max + self
	}
	return h
}

// assembleInputs gathers a task's input Values: its params overlaid with
// every cabled upstream output. It returns the upstream task IDs for
// span annotation.
func assembleInputs(g *Graph, id string, res *Result, mu *sync.Mutex) (Values, []string, error) {
	t := g.Task(id)
	in := Values{}
	for k, v := range t.Params {
		in[k] = v
	}
	var upstream []string
	mu.Lock()
	defer mu.Unlock()
	for _, c := range g.Cables() {
		if c.ToTask != id {
			continue
		}
		src, ok := res.Outputs[c.FromTask]
		if !ok {
			return nil, nil, fmt.Errorf("internal: upstream %q not finished", c.FromTask)
		}
		v, ok := src[c.FromPort]
		if !ok {
			return nil, nil, fmt.Errorf("upstream %s produced no %q output", c.FromTask, c.FromPort)
		}
		in[c.ToPort] = v
		upstream = append(upstream, c.FromTask)
	}
	return in, upstream, nil
}

// execTask assembles a task's inputs, replays it from the journal when
// its digest matches a completed record, and otherwise executes it under
// its deadline slice, journaling the terminal outcome.
func (e *Engine) execTask(ctx context.Context, g *Graph, id string, res *Result, mu *sync.Mutex, j *Journal, height int) (Values, error) {
	t := g.Task(id)
	in, upstream, err := assembleInputs(g, id, res, mu)
	if err != nil {
		return nil, err
	}
	reg := e.obsReg()

	var digest string
	if j != nil {
		digest = StepDigest(t.Unit, in)
		if rec, ok := j.Completed(id); ok && rec.InputDigest == digest {
			e.emit(Event{Kind: TaskReplayed, TaskID: id, UnitName: t.Unit.Name()})
			reg.Counter("workflow_steps_resumed_total").Inc()
			wfLog.Info(ctx, "replay", "id", id, "unit", t.Unit.Name(), "digest", digest)
			out := Values{}
			for k, v := range rec.Outputs {
				out[k] = v
			}
			return out, nil
		}
	}

	// Deadline budgeting: give the step its share of the time left,
	// computed over the longest unfinished chain hanging off it. height
	// <= 1 (a sink) gets everything that remains — same as no budget.
	if dl, ok := ctx.Deadline(); ok && e.BudgetDeadlines {
		remaining := time.Until(dl)
		if remaining > 0 && height > 1 {
			slice := remaining / time.Duration(height)
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.Now().Add(slice))
			defer cancel()
			reg.Histogram("workflow_step_budget_ms").Observe(float64(slice) / float64(time.Millisecond))
		} else {
			reg.Histogram("workflow_step_budget_ms").Observe(float64(remaining) / float64(time.Millisecond))
		}
	}

	// Per-step hedge stats feed the journal record; fold them into any
	// collector the caller attached so run-level totals still add up.
	var hs resilience.HedgeStats
	started := time.Now()
	out, attempts, runErr := e.runTask(resilience.WithHedgeStats(ctx, &hs), g, id, in, upstream)
	if outer, ok := resilience.HedgeStatsFrom(ctx); ok {
		outer.Launched.Add(hs.Launched.Load())
		outer.Wins.Add(hs.Wins.Load())
	}

	if j != nil {
		rec := StepRecord{
			Step:        id,
			Unit:        t.Unit.Name(),
			Status:      StepOK,
			InputDigest: digest,
			Outputs:     out,
			Attempts:    attempts,
			HedgeWins:   hs.Wins.Load(),
			Started:     started,
			WallMS:      float64(time.Since(started)) / float64(time.Millisecond),
		}
		if tc, ok := obs.TraceFrom(ctx); ok {
			rec.TraceID = tc.TraceID
		}
		if runErr != nil {
			rec.Status = StepFailed
			rec.Outputs = nil
			rec.Error = runErr.Error()
		}
		if jerr := j.Append(rec); jerr != nil {
			// A journal that cannot persist a completed step must fail the
			// run: pretending the step is durable would re-invoke it after
			// a crash the caller believed it was protected from.
			if runErr == nil {
				return nil, jerr
			}
			wfLog.Warn(ctx, "journal_append", "id", id, "err", jerr)
		}
	}
	return out, runErr
}

// runTask executes a task's unit on the assembled inputs, falling back
// to alternates on failure. Each task runs under its own span (child of
// the run span), annotated with its unit and the upstream tasks it is
// cabled to, so a trace tree mirrors the workflow graph. It returns the
// number of attempts consumed.
func (e *Engine) runTask(ctx context.Context, g *Graph, id string, in Values, upstream []string) (Values, int, error) {
	t := g.Task(id)
	reg := e.obsReg()
	ctx, span := obs.StartSpan(ctx, "workflow", "task:"+id)
	span.SetAttr("unit", t.Unit.Name())
	if len(upstream) > 0 {
		span.SetAttr("upstream", strings.Join(upstream, ","))
	}
	inflight := reg.Gauge("workflow_inflight_tasks")
	inflight.Add(1)
	defer inflight.Add(-1)

	units := append([]Unit{t.Unit}, t.Alternates...)
	maxAttempts := t.Retries + 1
	if maxAttempts < len(units) {
		maxAttempts = len(units)
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		u := units[attempt%len(units)]
		e.emit(Event{Kind: TaskStarted, TaskID: id, UnitName: u.Name(), Attempt: attempt})
		began := time.Now()
		out, err := u.Run(ctx, in)
		dur := time.Since(began)
		reg.Histogram("workflow_task_wall_ms").Observe(float64(dur) / float64(time.Millisecond))
		if err == nil {
			e.emit(Event{Kind: TaskFinished, TaskID: id, UnitName: u.Name(), Attempt: attempt, Duration: dur})
			reg.Counter("workflow_tasks_total", "status=ok").Inc()
			span.SetAttr("attempt", strconv.Itoa(attempt))
			span.End(nil)
			wfLog.Debug(ctx, "task", "id", id, "unit", u.Name(), "attempt", attempt,
				"dur_ms", float64(dur)/float64(time.Millisecond))
			return out, attempt + 1, nil
		}
		lastErr = err
		e.emit(Event{Kind: TaskFailed, TaskID: id, UnitName: u.Name(), Attempt: attempt, Err: err, Duration: dur})
		wfLog.Warn(ctx, "task", "id", id, "unit", u.Name(), "attempt", attempt, "err", err)
		if ctx.Err() != nil {
			reg.Counter("workflow_tasks_total", "status=cancelled").Inc()
			span.End(ctx.Err())
			return nil, attempt + 1, ctx.Err()
		}
		if attempt+1 < maxAttempts {
			next := units[(attempt+1)%len(units)]
			e.emit(Event{Kind: TaskRetried, TaskID: id, UnitName: next.Name(), Attempt: attempt + 1})
			reg.Counter("workflow_task_retries_total").Inc()
		}
	}
	reg.Counter("workflow_tasks_total", "status=failed").Inc()
	span.End(lastErr)
	return nil, maxAttempts, lastErr
}
