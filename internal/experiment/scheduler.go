package experiment

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/resilience"
)

var expLog = obs.L("experiment")

// EventKind labels a scheduler monitoring event.
type EventKind int

const (
	// JobStarted fires when an attempt begins.
	JobStarted EventKind = iota
	// JobFinished fires on success.
	JobFinished
	// JobFailed fires when an attempt fails.
	JobFailed
	// JobRetrying fires before the wait preceding a retry.
	JobRetrying
	// JobSkipped fires when a journal hit lets a job be skipped on resume.
	JobSkipped
)

// String renders the event kind.
func (k EventKind) String() string {
	switch k {
	case JobStarted:
		return "started"
	case JobFinished:
		return "finished"
	case JobFailed:
		return "failed"
	case JobRetrying:
		return "retrying"
	case JobSkipped:
		return "skipped"
	default:
		return "event"
	}
}

// Event is one scheduler progress notification.
type Event struct {
	Kind    EventKind
	Job     Job
	Attempt int
	Err     error
	// Wait is the delay before the next attempt (JobRetrying): the
	// backoff, or the server's Retry-After hint when that is longer.
	Wait time.Duration
	// Duration is the elapsed attempt time (JobFinished/JobFailed).
	Duration time.Duration
}

// Scheduler runs a job set through an executor on a bounded worker pool
// with per-job timeouts and retry with exponential backoff + jitter on
// transient errors (resilience.Policy.Do). The zero value is usable:
// NumCPU workers, no job timeout, one attempt (no retries), 100ms..5s
// backoff.
type Scheduler struct {
	// Workers bounds concurrent jobs; <=0 means runtime.NumCPU().
	Workers int
	// JobTimeout bounds each attempt; 0 means no per-attempt deadline.
	JobTimeout time.Duration
	// MaxRetries is the number of re-attempts after a transient failure
	// (so a job runs at most MaxRetries+1 times). Negative means 0.
	MaxRetries int
	// BackoffBase is the first retry delay, doubling each retry up to
	// BackoffMax; each delay is jittered to 50-150% of its nominal value,
	// and stretched to a shedding server's Retry-After hint.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Monitor, when set, receives progress events; it must be safe for
	// concurrent use.
	Monitor func(Event)
}

func (s *Scheduler) emit(ev Event) {
	if s.Monitor != nil {
		s.Monitor(ev)
	}
}

func (s *Scheduler) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.NumCPU()
}

func (s *Scheduler) maxAttempts() int {
	if s.MaxRetries < 0 {
		return 1
	}
	return s.MaxRetries + 1
}

// policy returns worker w's retry policy. Each worker owns its jitter
// sequence (seeded w+1), so a run's waits do not depend on how the
// workers interleave.
func (s *Scheduler) policy(w int) *resilience.Policy {
	base := s.BackoffBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := s.BackoffMax
	if max <= 0 {
		max = 5 * time.Second
	}
	return &resilience.Policy{MaxAttempts: s.maxAttempts(), BackoffBase: base, BackoffMax: max, Seed: int64(w) + 1}
}

// Run executes jobs against exec, fanning out over the worker pool. Each
// job receives the dataset it names from data. When journal is non-nil,
// jobs with a completed journal record are skipped (their recorded metrics
// flow into the results) and every newly terminal job is appended, so a
// killed run resumes where it stopped.
//
// Run returns a result per job, sorted by job ID. The error is ctx's
// error when the run was cancelled; per-job failures are reported in the
// results, not as a Run error.
func (s *Scheduler) Run(ctx context.Context, jobs []Job, data map[string]*dataset.Dataset, exec Executor, journal *Journal) ([]JobResult, error) {
	// The whole batch shares one trace: every job span, SOAP call and
	// journal record carries the same trace ID.
	ctx, _ = obs.EnsureTrace(ctx)
	expLog.Info(ctx, "run", "jobs", len(jobs), "executor", exec.Name(), "workers", s.workers())
	results := make([]JobResult, 0, len(jobs))
	var pending []Job
	for _, job := range jobs {
		if journal != nil {
			if rec, ok := journal.Completed(job.ID); ok {
				res := JobResult{Job: job, Status: StatusSkipped, Attempts: rec.Attempts, Started: rec.Started,
					Wall: time.Duration(rec.WallMS * float64(time.Millisecond))}
				if rec.Metrics != nil {
					res.Metrics = *rec.Metrics
				}
				results = append(results, res)
				s.emit(Event{Kind: JobSkipped, Job: job})
				continue
			}
		}
		pending = append(pending, job)
	}

	jobCh := make(chan Job)
	resCh := make(chan JobResult)
	workers := s.workers()
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(pol *resilience.Policy) {
			defer func() { done <- struct{}{} }()
			for job := range jobCh {
				resCh <- s.runJob(ctx, job, data[job.Dataset], exec, pol)
			}
		}(s.policy(w))
	}
	go func() {
		defer close(jobCh)
		for _, job := range pending {
			select {
			case jobCh <- job:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		for w := 0; w < workers; w++ {
			<-done
		}
		close(resCh)
	}()

	var journalErr error
	for res := range resCh {
		if journal != nil {
			if err := journal.Append(recordOf(res)); err != nil && journalErr == nil {
				journalErr = err
			}
		}
		results = append(results, res)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Job.ID < results[j].Job.ID })
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, journalErr
}

// runJob drives one job through pol's attempt/backoff cycle. Every
// attempt runs under its own span (child of the batch trace), and the
// attempt, retry and backoff counts land in obs.Default.
func (s *Scheduler) runJob(ctx context.Context, job Job, d *dataset.Dataset, exec Executor, pol *resilience.Policy) JobResult {
	started := time.Now()
	reg := obs.Default
	inflight := reg.Gauge("experiment_inflight_jobs")
	inflight.Add(1)
	defer inflight.Add(-1)
	tc, _ := obs.TraceFrom(ctx)
	var m Metrics
	attempts := 0
	err := pol.Do(ctx, func(ctx context.Context) error {
		attempts++
		s.emit(Event{Kind: JobStarted, Job: job, Attempt: attempts})
		reg.Counter("experiment_attempts_total", "executor="+exec.Name()).Inc()
		attemptCtx, span := obs.StartSpan(ctx, "experiment", "job:"+job.ID)
		span.SetAttr("attempt", strconv.Itoa(attempts))
		span.SetAttr("executor", exec.Name())
		var cancel context.CancelFunc
		if s.JobTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(attemptCtx, s.JobTimeout)
		}
		began := time.Now()
		var err error
		m, err = exec.Execute(attemptCtx, job, d)
		if cancel != nil {
			cancel()
		}
		span.End(err)
		dur := time.Since(began)
		if err == nil {
			s.emit(Event{Kind: JobFinished, Job: job, Attempt: attempts, Duration: dur})
			expLog.Debug(ctx, "job", "id", job.ID, "attempt", attempts, "status", "ok",
				"dur_ms", dur.Milliseconds())
			return nil
		}
		s.emit(Event{Kind: JobFailed, Job: job, Attempt: attempts, Err: err, Duration: dur})
		expLog.Warn(ctx, "job", "id", job.ID, "attempt", attempts, "err", err)
		return err
	}, func(attempt int, _ error, wait time.Duration) {
		s.emit(Event{Kind: JobRetrying, Job: job, Attempt: attempt + 1, Wait: wait})
		reg.Counter("experiment_retries_total").Inc()
		reg.Counter("experiment_backoff_sleeps_total").Inc()
	})
	if err == nil {
		reg.Counter("experiment_jobs_total", "status=ok").Inc()
		return JobResult{Job: job, Status: StatusOK, Attempts: attempts, Metrics: m,
			Started: started, Wall: time.Since(started), TraceID: tc.TraceID}
	}
	reg.Counter("experiment_jobs_total", "status=failed").Inc()
	return JobResult{Job: job, Status: StatusFailed, Attempts: attempts, Err: err.Error(),
		Started: started, Wall: time.Since(started), TraceID: tc.TraceID}
}

// recordOf converts a terminal result into its journal record.
func recordOf(res JobResult) Record {
	rec := Record{
		JobID:     res.Job.ID,
		Task:      res.Job.Task,
		Algorithm: res.Job.Algorithm,
		Dataset:   res.Job.Dataset,
		Status:    res.Status,
		Attempts:  res.Attempts,
		Error:     res.Err,
		Started:   res.Started,
		WallMS:    float64(res.Wall) / float64(time.Millisecond),
		TraceID:   res.TraceID,
	}
	if res.Status == StatusOK {
		m := res.Metrics
		rec.Metrics = &m
	}
	return rec
}
