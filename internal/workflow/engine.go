package workflow

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// TaskFailed fires when a task fails.
	TaskFailed
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
	Err      error
	Duration time.Duration
}

// Monitor receives events; it must be safe for concurrent use.
type Monitor func(Event)

// Engine executes workflow graphs and batches alike: a batch of
// independent jobs is a graph without cables. A task starts as soon as
// every cabled input is available and a worker is free, and runs its
// unit once: retrying and moving a call to another resource is the
// unit's own business (a registry-backed SOAPUnit's endpoint pool). A
// failed task fails the tasks downstream of it, not its siblings, so
// every step that can finish does, and is journaled.
//
// Under a caller deadline each step runs under remaining/h of the time
// left, h being the length of the longest unfinished chain hanging off
// it, so one slow step fails its own slice instead of silently starving
// every successor. Steps that finish early return their unused slice:
// the split is recomputed from the real clock at every step start.
type Engine struct {
	// Workers bounds how many tasks run at once: 0 means no bound, as
	// NewEngine runs, and 1 runs the graph sequentially in a fixed order.
	Workers int
	// Monitor, when set, receives progress events.
	Monitor Monitor
	// Observer receives the engine's metrics; nil means obs.Default.
	Observer *obs.Registry
}

// NewEngine returns an engine that runs every ready task at once.
func NewEngine() *Engine { return &Engine{} }

func (e *Engine) emit(ev Event) {
	if e.Monitor != nil {
		e.Monitor(ev)
	}
}

// runMetrics are the engine's instruments, looked up once per run.
type runMetrics struct {
	ok, failed, cancelled, resumed *obs.Counter
	wall, budget                   *obs.Histogram
	inflight, pending              *obs.Gauge
}

func (e *Engine) metrics() *runMetrics {
	reg := e.Observer
	if reg == nil {
		reg = obs.Default
	}
	return &runMetrics{
		ok:        reg.Counter("workflow_tasks_total", "status=ok"),
		failed:    reg.Counter("workflow_tasks_total", "status=failed"),
		cancelled: reg.Counter("workflow_tasks_total", "status=cancelled"),
		resumed:   reg.Counter("workflow_steps_resumed_total"),
		wall:      reg.Histogram("workflow_task_wall_ms"),
		budget:    reg.Histogram("workflow_step_budget_ms"),
		inflight:  reg.Gauge("workflow_inflight_tasks"),
		pending:   reg.Gauge("workflow_pending_tasks"),
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

// Run executes the graph. Params provide values for unconnected input
// nodes. When a task fails, Run still runs every task that does not
// depend on it, then returns the first failure.
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

// journalError marks a step that ran but whose outcome the journal could
// not persist. It stops the run: pretending the step is durable would
// re-invoke it after a crash the caller believed it was protected from.
type journalError struct{ err error }

func (e *journalError) Error() string { return e.err.Error() }
func (e *journalError) Unwrap() error { return e.err }

// errHalted is the outcome of a step a run did not start because an
// earlier step could not be journaled.
var errHalted = errors.New("workflow: not started: the run's journal failed")

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
	res := &Result{Outputs: make(map[string]Values, len(order))}
	var mu sync.Mutex // guards res.Outputs

	// waits[taskID] = number of distinct upstream tasks still pending.
	waits := make(map[string]int, len(order))
	dependents := map[string][]string{}
	for _, id := range order {
		preds := g.predecessors(id)
		waits[id] = len(preds)
		for _, p := range preds {
			dependents[p] = append(dependents[p], id)
		}
	}
	heights := criticalHeights(order, dependents, j)
	m := e.metrics()

	// halt is set once a step's outcome could not be journaled: the run
	// then starts no more steps, as a cancelled one does.
	var halt atomic.Bool
	type outcome struct {
		id  string
		err error
	}
	// How ready tasks run. With Workers 1 the caller's goroutine takes
	// them off the queue in the order they became ready. Otherwise a task
	// that becomes ready while every worker is busy starts a new worker
	// with it in hand, up to Workers of them (no bound for 0); any other
	// task queues for the next worker to come free, so a worker's stack
	// grows once, not once per task. The queue closes once the last task
	// is ready: workers leave as it drains, rather than lingering parked
	// on the run's state after Run returns. Both channels can hold every
	// task.
	inline := e.Workers == 1
	queue := make(chan string, len(order))
	done := make(chan outcome, len(order))
	ready, finished, started := 0, 0, 0
	defer func() {
		if ready < len(order) { // a failure left tasks that never became ready
			close(queue)
		}
	}()
	step := func(id string) outcome {
		var out Values
		err := ctx.Err()
		if err == nil && halt.Load() {
			err = errHalted
		}
		if err == nil {
			out, err = e.execTask(ctx, g, id, res, &mu, j, heights[id], m)
		}
		if err == nil {
			mu.Lock()
			res.Outputs[id] = out
			mu.Unlock()
		}
		return outcome{id, err}
	}
	enqueue := func(id string) {
		ready++
		if !inline && (e.Workers <= 0 || started < e.Workers) && started < ready-finished {
			started++
			go func() {
				done <- step(id)
				for id := range queue {
					done <- step(id)
				}
			}()
		} else {
			queue <- id
		}
		if ready == len(order) {
			close(queue)
		}
	}

	for _, id := range order {
		if waits[id] == 0 {
			enqueue(id)
		}
	}
	m.pending.Set(int64(len(order)))
	var firstErr error
	var je *journalError
	for finished < ready {
		var o outcome
		if inline {
			o = step(<-queue)
		} else {
			o = <-done
		}
		finished++
		m.pending.Set(int64(len(order) - finished))
		switch {
		case o.err == nil:
			for _, dep := range dependents[o.id] {
				if waits[dep]--; waits[dep] == 0 {
					enqueue(dep)
				}
			}
		case je == nil && errors.As(o.err, &je):
			halt.Store(true)
			firstErr = fmt.Errorf("workflow: task %q: %w", o.id, o.err)
		case firstErr == nil:
			firstErr = fmt.Errorf("workflow: task %q: %w", o.id, o.err)
		}
	}
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
// every cabled upstream output, or nil for a task with neither. It
// returns the upstream task IDs for span annotation.
func assembleInputs(g *Graph, t *Task, res *Result, mu *sync.Mutex) (Values, []string, error) {
	var in Values
	if len(t.Params) > 0 {
		in = maps.Clone(t.Params)
	}
	var upstream []string
	mu.Lock()
	defer mu.Unlock()
	for _, c := range g.cables {
		if c.ToTask != t.ID {
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
		if in == nil {
			in = Values{}
		}
		in[c.ToPort] = v
		upstream = append(upstream, c.FromTask)
	}
	return in, upstream, nil
}

// execTask assembles a task's inputs, replays it from the journal when
// its digest matches a completed record, and otherwise runs its unit
// under its deadline slice, journaling the terminal outcome.
func (e *Engine) execTask(ctx context.Context, g *Graph, id string, res *Result, mu *sync.Mutex, j *Journal, height int, m *runMetrics) (Values, error) {
	t := g.Task(id)
	in, upstream, err := assembleInputs(g, t, res, mu)
	if err != nil {
		return nil, err
	}

	var digest string
	if j != nil {
		digest = StepDigest(t.Unit, in)
		if rec, ok := j.Completed(id); ok && rec.InputDigest == digest {
			e.emit(Event{Kind: TaskReplayed, TaskID: id, UnitName: t.Unit.Name()})
			m.resumed.Inc()
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
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining > 0 && height > 1 {
			slice := remaining / time.Duration(height)
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.Now().Add(slice))
			defer cancel()
			m.budget.Observe(float64(slice) / float64(time.Millisecond))
		} else {
			m.budget.Observe(float64(remaining) / float64(time.Millisecond))
		}
	}

	if j == nil {
		out, _, err := e.runTask(ctx, t, in, upstream, m)
		return out, err
	}
	// Per-step attempt and hedge counts feed the journal record; fold the
	// hedge counts into any collector the caller attached so run-level
	// totals still add up.
	var attempts atomic.Int64
	var hs resilience.HedgeStats
	stepCtx := resilience.WithHedgeStats(context.WithValue(ctx, attemptsKey{}, &attempts), &hs)
	out, started, runErr := e.runTask(stepCtx, t, in, upstream, m)
	if outer, ok := resilience.HedgeStatsFrom(ctx); ok {
		outer.Launched.Add(hs.Launched.Load())
		outer.Wins.Add(hs.Wins.Load())
	}
	rec := StepRecord{
		Step:        id,
		Unit:        t.Unit.Name(),
		Status:      StepOK,
		InputDigest: digest,
		Outputs:     out,
		Attempts:    max(1, int(attempts.Load())),
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
		if runErr == nil {
			return nil, &journalError{jerr}
		}
		wfLog.Warn(ctx, "journal_append", "id", id, "err", jerr)
	}
	return out, runErr
}

// runTask runs a task's unit once on the assembled inputs, under its own
// span (child of the run span) annotated with its unit and the upstream
// tasks it is cabled to, so a trace tree mirrors the workflow graph. It
// returns when the unit started.
func (e *Engine) runTask(ctx context.Context, t *Task, in Values, upstream []string, m *runMetrics) (Values, time.Time, error) {
	u := t.Unit
	ctx, span := obs.StartSpan(ctx, "workflow", "task:"+t.ID)
	span.SetAttr("unit", u.Name())
	if len(upstream) > 0 {
		span.SetAttr("upstream", strings.Join(upstream, ","))
	}
	m.inflight.Add(1)
	defer m.inflight.Add(-1)

	e.emit(Event{Kind: TaskStarted, TaskID: t.ID, UnitName: u.Name()})
	began := time.Now()
	out, err := u.Run(ctx, in)
	dur := time.Since(began)
	m.wall.Observe(float64(dur) / float64(time.Millisecond))
	if err == nil {
		span.End(nil)
		e.emit(Event{Kind: TaskFinished, TaskID: t.ID, UnitName: u.Name(), Duration: dur})
		m.ok.Inc()
		if wfLog.Enabled(obs.LevelDebug) {
			wfLog.Debug(ctx, "task", "id", t.ID, "unit", u.Name(), "dur_ms", float64(dur)/float64(time.Millisecond))
		}
		return out, began, nil
	}
	e.emit(Event{Kind: TaskFailed, TaskID: t.ID, UnitName: u.Name(), Err: err, Duration: dur})
	wfLog.Warn(ctx, "task", "id", t.ID, "unit", u.Name(), "err", err)
	if ctx.Err() != nil {
		// The run was cancelled or the step's deadline slice ran out:
		// report that, not whatever the unit made of it.
		err = ctx.Err()
		m.cancelled.Inc()
	} else {
		m.failed.Inc()
	}
	span.End(err)
	return nil, began, err
}
