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
)

// The two tables below were recorded from the scheduler's own retry code
// (its IsTransient classifier and its per-worker jittered backoff) before
// retry moved into resilience.Policy.Do. They pin the scheduler's
// observable retry behaviour: change the adapters under them, never the
// rows.

// retries reports whether the scheduler re-attempts a job that failed
// with err.
func retries(err error) bool { return resilience.ClassifyErr(err).Retries() }

// wrapTransient marks err as worth retrying, as an executor does.
func wrapTransient(err error) error { return resilience.Transient(err) }

// schedulerWaits returns the backoff waits worker w sleeps before
// attempts 2..n+1 under s.
func schedulerWaits(s *Scheduler, w, n int) []time.Duration {
	pol := s.policy(w)
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

func TestSchedulerBackoffOracle(t *testing.T) {
	cases := []struct {
		name  string
		s     Scheduler
		waits [3][6]time.Duration // per worker 0..2, before attempts 2..7
	}{
		{"zero config", Scheduler{}, [3][6]time.Duration{
			{97779410, 182153551, 266145821, 1035010051, 1087113937, 2949167320},
			{73358511, 285893231, 211123542, 664907392, 1599639242, 1982075100},
			{124057861, 234794384, 454595469, 1037155581, 1826419523, 3545769183},
		}},
		{"1ms base, 4ms max", Scheduler{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}, [3][6]time.Duration{
			{1279410, 1153551, 4145821, 5010051, 5113937, 3167320},
			{858511, 2893231, 5123542, 2907392, 5639242, 4075100},
			{557861, 1794384, 4595469, 3155581, 4419523, 3769183},
		}},
	}
	for _, c := range cases {
		for w := 0; w < 3; w++ {
			got := schedulerWaits(&c.s, w, 6)
			for i, want := range c.waits[w] {
				if got[i] != want {
					t.Errorf("%s, worker %d, attempt %d: wait %v, want %v", c.name, w, i+1, got[i], want)
				}
			}
		}
	}
}

// funcExec adapts a function to Executor.
type funcExec func(ctx context.Context, job Job) (Metrics, error)

func (funcExec) Name() string { return "func" }
func (f funcExec) Execute(ctx context.Context, job Job, _ *dataset.Dataset) (Metrics, error) {
	return f(ctx, job)
}

// TestSchedulerHonoursRetryAfter: a job shed with a Retry-After hint is
// not re-attempted before the hint, however small the backoff.
func TestSchedulerHonoursRetryAfter(t *testing.T) {
	var calls atomic.Int64
	exec := funcExec(func(context.Context, Job) (Metrics, error) {
		if calls.Add(1) == 1 {
			return Metrics{}, &soap.Fault{Code: resilience.BusyFaultCode, String: "shed", Retry: 80 * time.Millisecond}
		}
		return Metrics{Accuracy: 1}, nil
	})
	var waits []time.Duration
	s := &Scheduler{Workers: 1, MaxRetries: 2, BackoffBase: time.Millisecond,
		Monitor: func(ev Event) {
			if ev.Kind == JobRetrying {
				waits = append(waits, ev.Wait)
			}
		}}
	results, err := s.Run(context.Background(), []Job{{ID: "shed"}}, nil, exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusOK || results[0].Attempts != 2 {
		t.Fatalf("result %+v, want ok after 2 attempts", results[0])
	}
	if len(waits) != 1 || waits[0] < 80*time.Millisecond {
		t.Fatalf("retry waits %v, want one wait of at least the 80ms Retry-After", waits)
	}
}

// TestSchedulerZeroValueRunsOnce: the zero Scheduler makes one attempt,
// even at an always-transient job.
func TestSchedulerZeroValueRunsOnce(t *testing.T) {
	var calls atomic.Int64
	exec := funcExec(func(context.Context, Job) (Metrics, error) {
		calls.Add(1)
		return Metrics{}, wrapTransient(errors.New("always transient"))
	})
	var s Scheduler
	results, err := s.Run(context.Background(), []Job{{ID: "flaky"}}, nil, exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 || results[0].Attempts != 1 || results[0].Status != StatusFailed {
		t.Fatalf("%d calls, result %+v; want one failed attempt", got, results[0])
	}
}
