package resilience

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"testing"
	"time"
)

// fault mimics a SOAP fault through the FaultCode contract without
// importing the soap package.
type fault struct{ code string }

func (f *fault) Error() string     { return "soap fault " + f.code }
func (f *fault) FaultCode() string { return f.code }

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestClassifyErr(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Success},
		{"cancelled", context.Canceled, Aborted},
		{"wrapped cancelled", fmt.Errorf("call: %w", context.Canceled), Aborted},
		{"attempt deadline", context.DeadlineExceeded, Retryable},
		{"server fault", &fault{"soap:Server"}, Retryable},
		{"client fault", &fault{"soap:Client"}, Permanent},
		{"wrapped client fault", fmt.Errorf("job: %w", &fault{"soap:Client"}), Permanent},
		{"net error", timeoutErr{}, Retryable},
		{"url error", &url.Error{Op: "Post", URL: "http://x", Err: errors.New("refused")}, Retryable},
		{"circuit open", fmt.Errorf("ep: %w", errOpen), Retryable},
		{"no endpoints", fmt.Errorf("pool: %w", ErrNoHealthyEndpoint), Retryable},
		{"plain error", errors.New("boom"), Permanent},
		{"transient client fault", Transient(&fault{"soap:Client"}), Retryable},
		{"transient cancelled", Transient(context.Canceled), Aborted},
	}
	for _, tc := range cases {
		if got := ClassifyErr(tc.err); got != tc.want {
			t.Errorf("%s: ClassifyErr = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Once the caller's context is dead every outcome is Aborted: no retry
// can run after the caller's deadline.
func TestClassifyAbortsOnDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := classify(ctx, &fault{"soap:Server"}); got != Aborted {
		t.Fatalf("dead context: Classify = %v, want Aborted", got)
	}
	if got := classify(context.Background(), &fault{"soap:Server"}); got != Retryable {
		t.Fatalf("live context: Classify = %v, want Retryable", got)
	}
}

func TestPolicyBackoff(t *testing.T) {
	p := &Policy{BackoffBase: 100 * time.Millisecond, BackoffMax: 400 * time.Millisecond, Seed: 7}
	for attempt, nominal := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		4: 400 * time.Millisecond, // capped
	} {
		d := p.Backoff(attempt)
		if d < nominal/2 || d >= nominal+nominal/2 {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d, nominal/2, nominal+nominal/2)
		}
	}
}

// The jitter sequence is deterministic for a given seed, so failure
// reproductions replay the same schedule.
func TestPolicyBackoffDeterministic(t *testing.T) {
	seq := func() []time.Duration {
		p := &Policy{BackoffBase: 10 * time.Millisecond, Seed: 42}
		var out []time.Duration
		for i := 1; i <= 5; i++ {
			out = append(out, p.Backoff(i))
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff sequence not deterministic: %v vs %v", a, b)
		}
	}
}

func TestPolicyDefaultsAndNil(t *testing.T) {
	var p *Policy
	if got := p.Attempts(); got != 3 {
		t.Fatalf("nil policy attempts = %d, want 3", got)
	}
	if d := p.Backoff(1); d <= 0 {
		t.Fatalf("nil policy backoff = %v", d)
	}
	calls := 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Do(ctx, func(context.Context) error { calls++; return nil }, nil); !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("Do on dead ctx = %v after %d calls, want Canceled and no attempt", err, calls)
	}
}
