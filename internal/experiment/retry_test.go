package experiment

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/resilience"
	"repro/internal/soap"
	"repro/internal/workflow"
)

// The two tables below were recorded from the batch scheduler's own retry
// code (its IsTransient classifier and its per-worker jittered backoff)
// before retry moved into resilience.Policy.Do and the scheduler into the
// workflow engine. They pin a batch's observable retry behaviour: change
// the adapters under them, never the rows. Jitter is now seeded per job,
// job i with i+1 as worker i was, so the rows hold for jobs 0..2.

// retries reports whether a batch re-attempts a job that failed with
// err.
func retries(err error) bool { return resilience.ClassifyErr(err).Retries() }

// wrapTransient marks err as worth retrying, as an executor does.
func wrapTransient(err error) error { return resilience.Transient(err) }

// retryWaits returns the backoff waits job i sleeps before attempts
// 2..n+1 under r.
func retryWaits(r Retry, i, n int) []time.Duration {
	pol := r.policy(i)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = pol.Backoff(i + 1)
	}
	return out
}

func TestRetryClassificationOracle(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, true},
		{"soap:Client", &soap.Fault{Code: "soap:Client", String: "bad request"}, false},
		{"soap:Server", &soap.Fault{Code: "soap:Server", String: "boom"}, true},
		{"soap:Server.Busy", &soap.Fault{Code: resilience.BusyFaultCode, String: "shed"}, true},
		{"no healthy endpoint", fmt.Errorf("pick: %w", resilience.ErrNoHealthyEndpoint), true},
		{"url.Error", &url.Error{Op: "Post", URL: "http://127.0.0.1:1", Err: errors.New("connection refused")}, true},
		{"net.Error", &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}, true},
		{"transient soap:Client", wrapTransient(&soap.Fault{Code: "soap:Client", String: "bad request"}), true},
		{"plain", errors.New("unknown classifier"), false},
	}
	for _, c := range cases {
		if got := retries(c.err); got != c.want {
			t.Errorf("%s: retries = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetryBackoffOracle(t *testing.T) {
	cases := []struct {
		name  string
		r     Retry
		waits [3][6]time.Duration // per job 0..2, before attempts 2..7
	}{
		{"zero config", Retry{}, [3][6]time.Duration{
			{97779410, 182153551, 266145821, 1035010051, 1087113937, 2949167320},
			{73358511, 285893231, 211123542, 664907392, 1599639242, 1982075100},
			{124057861, 234794384, 454595469, 1037155581, 1826419523, 3545769183},
		}},
		{"1ms base, 4ms max", Retry{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}, [3][6]time.Duration{
			{1279410, 1153551, 4145821, 5010051, 5113937, 3167320},
			{858511, 2893231, 5123542, 2907392, 5639242, 4075100},
			{557861, 1794384, 4595469, 3155581, 4419523, 3769183},
		}},
	}
	for _, c := range cases {
		for job := 0; job < 3; job++ {
			got := retryWaits(c.r, job, 6)
			for i, want := range c.waits[job] {
				if got[i] != want {
					t.Errorf("%s, job %d, attempt %d: wait %v, want %v", c.name, job, i+1, got[i], want)
				}
			}
		}
	}
}

// funcExec adapts a function that makes one attempt at a job to
// Executor.
type funcExec func(ctx context.Context, job Job) (Metrics, error)

func (funcExec) Name() string { return "func" }
func (f funcExec) Execute(ctx context.Context, t *Tries, job Job, _ *dataset.Dataset) (Metrics, error) {
	return t.Do(ctx, func(ctx context.Context) (Metrics, error) { return f(ctx, job) })
}

// TestRetryHonoursRetryAfter: a job shed with a Retry-After hint is not
// re-attempted before the hint, however small the backoff.
func TestRetryHonoursRetryAfter(t *testing.T) {
	var calls []time.Time // one worker: no concurrent appends
	exec := funcExec(func(context.Context, Job) (Metrics, error) {
		calls = append(calls, time.Now())
		if len(calls) == 1 {
			return Metrics{}, &soap.Fault{Code: resilience.BusyFaultCode, String: "shed", Retry: 80 * time.Millisecond}
		}
		return Metrics{Accuracy: 1}, nil
	})
	r := Retry{MaxRetries: 2, BackoffBase: time.Millisecond}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 1}, []Job{{ID: "shed"}}, nil, exec, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusOK || results[0].Attempts != 2 {
		t.Fatalf("result %+v, want ok after 2 attempts", results[0])
	}
	if len(calls) != 2 || calls[1].Sub(calls[0]) < 80*time.Millisecond {
		t.Fatalf("%d calls, %v apart; want two, at least the 80ms Retry-After apart", len(calls), calls[len(calls)-1].Sub(calls[0]))
	}
}

// TestRetryZeroValueRunsOnce: the zero Retry makes one attempt, even at
// an always-transient job.
func TestRetryZeroValueRunsOnce(t *testing.T) {
	var calls atomic.Int64
	exec := funcExec(func(context.Context, Job) (Metrics, error) {
		calls.Add(1)
		return Metrics{}, wrapTransient(errors.New("always transient"))
	})
	results, err := Run(context.Background(), &workflow.Engine{}, []Job{{ID: "flaky"}}, nil, exec, Retry{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 || results[0].Attempts != 1 || results[0].Status != StatusFailed {
		t.Fatalf("%d calls, result %+v; want one failed attempt", got, results[0])
	}
}
