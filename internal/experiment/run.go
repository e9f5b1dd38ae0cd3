package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/workflow"
)

var expLog = obs.L("experiment")

// Job statuses in JobResult and in a batch's journal.
const (
	StatusOK      = workflow.StepOK
	StatusFailed  = workflow.StepFailed
	StatusSkipped = "skipped" // journal hit on resume; never written back
)

// metricsPort is the output a job step hands its metrics out on, so the
// journal keeps them and a resumed batch replays them.
const metricsPort = "metrics"

// Retry is how a batch retries each job: exponential backoff with
// jitter on transient errors, under the loop the job's executor runs
// (see Tries). The zero value makes one attempt per job, with no
// per-attempt deadline.
type Retry struct {
	// MaxRetries is the number of re-attempts after a transient failure
	// (so a job runs at most MaxRetries+1 times). Negative means 0.
	MaxRetries int
	// BackoffBase is the first retry delay (default 100ms), doubling
	// each retry up to BackoffMax (default 5s); each delay is jittered to
	// 50-150% of its nominal value, and stretched to a shedding server's
	// Retry-After hint.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JobTimeout bounds each attempt; 0 means no per-attempt deadline.
	JobTimeout time.Duration
}

// policy returns job i's retry policy. Each job owns its jitter
// sequence (seeded i+1), so a run's waits do not depend on how the jobs
// interleave.
func (r Retry) policy(i int) resilience.Policy {
	base := r.BackoffBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := r.BackoffMax
	if max <= 0 {
		max = 5 * time.Second
	}
	attempts := 1
	if r.MaxRetries > 0 {
		attempts += r.MaxRetries
	}
	return resilience.Policy{MaxAttempts: attempts, BackoffBase: base, BackoffMax: max, Seed: int64(i) + 1}
}

// Run executes jobs as one workflow graph without cables on e: one task
// per job, with the job's ID, run under r. e.Workers bounds how many
// jobs run at once, runtime.NumCPU() when it is 0 or less, and e.Monitor
// sees every job start, finish, fail or replay. Each job receives the
// dataset it names from data. With a journal, jobs it holds as completed
// are replayed rather than run (StatusSkipped, their journaled metrics
// flowing into the results), and every job that runs is journaled, so a
// killed batch resumes where it stopped.
//
// Run returns a result per job that ran or was replayed, sorted by job
// ID. The error is ctx's when the batch was cancelled, or the engine's
// when a job's outcome could not be journaled; a job's own failure is
// reported in its result, not as a Run error.
func Run(ctx context.Context, e *workflow.Engine, jobs []Job, data map[string]*dataset.Dataset, exec Executor, r Retry, j *workflow.Journal) ([]JobResult, error) {
	// The whole batch shares one trace: every job span, SOAP call and
	// journal record carries the same trace ID.
	ctx, _ = obs.EnsureTrace(ctx)
	if e.Workers <= 0 {
		bounded := *e
		bounded.Workers = runtime.NumCPU()
		e = &bounded
	}
	expLog.Info(ctx, "run", "jobs", len(jobs), "executor", exec.Name(), "workers", e.Workers)
	reg := e.Observer
	if reg == nil {
		reg = obs.Default
	}
	retries := reg.Counter("resilience_retries_total")
	g := workflow.NewGraph("batch")
	units := make([]jobUnit, len(jobs))
	results := make([]JobResult, len(jobs))
	for i, job := range jobs {
		u := &units[i]
		*u = jobUnit{job: job, d: data[job.Dataset], exec: exec, pol: r.policy(i), res: &results[i]}
		u.tries = Tries{Policy: &u.pol, job: job.ID, timeout: r.JobTimeout, retries: retries}
		results[i].Job = job
		if _, err := g.Add(job.ID, u); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		if j == nil {
			continue
		}
		// A job line journaled before batches ran as graphs has no input
		// digest; key it to this job, as its ID already did, so the
		// engine replays it.
		if rec, ok := j.Completed(job.ID); ok && rec.InputDigest == "" {
			rec.InputDigest = workflow.StepDigest(u, nil)
			if err := j.Append(rec); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if j != nil {
		_, err = e.Resume(ctx, g, j)
	} else {
		_, err = e.Run(ctx, g)
	}
	out := results[:0]
	for i := range results {
		if results[i].Status == "" {
			// Never ran: replayed from the journal, or cut off by ctx.
			if j == nil {
				continue
			}
			rec, ok := j.Completed(jobs[i].ID)
			if !ok || rec.InputDigest != workflow.StepDigest(&units[i], nil) {
				continue
			}
			results[i] = resultOf(rec)
			results[i].Job, results[i].Status = jobs[i], StatusSkipped
		}
		out = append(out, results[i])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Job.ID < out[b].Job.ID })
	if cerr := ctx.Err(); cerr != nil {
		return out, cerr
	}
	var jf *jobFailure
	if err != nil && !errors.As(err, &jf) {
		return out, err
	}
	return out, nil
}

// jobFailure is a job's own failure, as its step reports it to the
// engine: Run records it in the job's result and the batch runs on.
type jobFailure struct{ err error }

func (f *jobFailure) Error() string { return f.err.Error() }
func (f *jobFailure) Unwrap() error { return f.err }

// jobUnit is one job of a batch as a workflow unit. It has no inputs and
// one output, the job's metrics; its Spec is the job, so a journaled
// step replays only for the same job.
type jobUnit struct {
	job   Job
	d     *dataset.Dataset
	exec  Executor
	pol   resilience.Policy
	tries Tries
	res   *JobResult
}

// Name implements workflow.Unit: the algorithm the job runs.
func (u *jobUnit) Name() string { return u.job.Algorithm }

// Inputs implements workflow.Unit.
func (u *jobUnit) Inputs() []string { return nil }

// Outputs implements workflow.Unit.
func (u *jobUnit) Outputs() []string { return []string{metricsPort} }

// Spec implements workflow.Specced: the job's fields.
func (u *jobUnit) Spec() workflow.Spec {
	b, _ := json.Marshal(u.job) // strings, ints and a string map: cannot fail
	return workflow.Spec{Kind: "job", Config: map[string]string{"job": string(b)}}
}

// Run implements workflow.Unit: it runs the job on its executor and
// fills the job's result.
func (u *jobUnit) Run(ctx context.Context, _ workflow.Values) (workflow.Values, error) {
	res := u.res
	started := time.Now()
	m, err := u.exec.Execute(ctx, &u.tries, u.job, u.d)
	res.Metrics, res.Attempts = m, u.tries.n
	var b []byte
	if err == nil {
		b, err = json.Marshal(&res.Metrics)
	}
	res.Wall = time.Since(started)
	if err != nil {
		res.Status, res.Err = StatusFailed, err.Error()
		return nil, &jobFailure{err}
	}
	res.Status = StatusOK
	return workflow.Values{metricsPort: string(b)}, nil
}

// Tries is how an executor makes one job's attempts: under Policy's
// retry loop, each attempt through Try. Do is that loop for an executor
// that runs every attempt the same way; one that picks a resource per
// attempt runs its own loop over Policy (a Remote, its endpoint pool's
// Do) and calls Try inside it.
type Tries struct {
	// Policy is the job's retry policy: the batch's attempt budget and
	// backoff, with a jitter sequence of the job's own.
	Policy *resilience.Policy

	job     string
	timeout time.Duration
	retries *obs.Counter
	n       int // attempts made
}

// Try makes one attempt at the job through fn, under the batch's
// per-attempt deadline, and counts it in the job's result and journal
// record.
func (t *Tries) Try(ctx context.Context, fn func(context.Context) (Metrics, error)) (Metrics, error) {
	t.n++
	workflow.CountAttempt(ctx)
	if t.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.timeout)
		defer cancel()
	}
	m, err := fn(ctx)
	if err != nil {
		expLog.Warn(ctx, "job", "id", t.job, "attempt", t.n, "err", err)
	}
	return m, err
}

// Do makes the job's attempts through fn, each one through Try, under
// Policy's retry loop, counting retries in resilience_retries_total.
func (t *Tries) Do(ctx context.Context, fn func(context.Context) (Metrics, error)) (Metrics, error) {
	var m Metrics
	err := t.Policy.Do(ctx, func(ctx context.Context) (err error) {
		m, err = t.Try(ctx, fn)
		return err
	}, func(int, error, time.Duration) { t.retries.Inc() })
	return m, err
}

// resultOf rebuilds a job's result from its journal record. The job
// carries only what the record holds: its ID and algorithm.
func resultOf(rec workflow.StepRecord) JobResult {
	res := JobResult{
		Job:      Job{ID: rec.Step, Algorithm: rec.Unit},
		Status:   rec.Status,
		Attempts: rec.Attempts,
		Err:      rec.Error,
		Wall:     time.Duration(rec.WallMS * float64(time.Millisecond)),
	}
	if s, ok := rec.Outputs[metricsPort]; ok {
		_ = json.Unmarshal([]byte(s), &res.Metrics)
	}
	return res
}
