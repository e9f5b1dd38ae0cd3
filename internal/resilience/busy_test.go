package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// busyErr mimics a ServerBusy soap fault: classified Busy, carrying a
// Retry-After hint. (This package does not import soap, so the
// interfaces are exercised through a stub.)
type busyErr struct{ hint time.Duration }

func (e *busyErr) Error() string                 { return "ServerBusy" }
func (e *busyErr) FaultCode() string             { return BusyFaultCode }
func (e *busyErr) RetryAfterHint() time.Duration { return e.hint }

func TestClassifyBusy(t *testing.T) {
	if got := ClassifyErr(&busyErr{}); got != Busy {
		t.Fatalf("ClassifyErr(ServerBusy) = %v, want Busy", got)
	}
	if got := ClassifyErr(fmt.Errorf("wrapped: %w", &busyErr{})); got != Busy {
		t.Fatalf("wrapped ServerBusy classified %v, want Busy", got)
	}
	if Busy.String() != "busy" {
		t.Fatalf("Busy.String() = %q", Busy.String())
	}
}

func TestRetryAfterExtraction(t *testing.T) {
	if got := RetryAfter(&busyErr{hint: 250 * time.Millisecond}); got != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v", got)
	}
	if got := RetryAfter(fmt.Errorf("wrap: %w", &busyErr{hint: time.Second})); got != time.Second {
		t.Fatalf("RetryAfter through wrapping = %v", got)
	}
	if got := RetryAfter(errors.New("plain")); got != 0 {
		t.Fatalf("RetryAfter(plain error) = %v, want 0", got)
	}
}

// TestBreakerBusyIsNeutral: shed requests must not open a breaker — a
// shedding server is alive and should stay in the rotation — and a busy
// answer to a half-open probe must release the probe slot without
// closing or re-opening the breaker.
func TestBreakerBusyIsNeutral(t *testing.T) {
	cfg := BreakerConfig{FailureThreshold: 2}
	b := newBreaker("ep", cfg)

	for i := 0; i < 20; i++ {
		b.Record(Busy)
	}
	if got := b.State(); got != stateClosed {
		t.Fatalf("breaker opened on Busy outcomes alone: %v", got)
	}
	// One real failure after many sheds is 1 consecutive, not a trip.
	b.Record(Retryable)
	if got := b.State(); got != stateClosed {
		t.Fatalf("one failure after sheds tripped the breaker: %v", got)
	}

	// Trip it for real, then probe half-open with a Busy answer.
	b.Record(Retryable)
	if got := b.State(); got != stateOpen {
		t.Fatalf("two consecutive failures should open: %v", got)
	}
	b.now = func() time.Time { return time.Now().Add(breakerCooldown) }
	if !b.Allow() {
		t.Fatal("cooldown elapsed; breaker should admit a probe")
	}
	b.Record(Busy)
	if got := b.State(); got != stateHalfOpen {
		t.Fatalf("busy probe moved breaker to %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("busy probe should release the probe slot for the next attempt")
	}
}

// TestDoHonoursRetryAfter: Policy.Do waits max(backoff, Retry-After)
// between attempts, and the plain backoff when there is no hint.
func TestDoHonoursRetryAfter(t *testing.T) {
	p := &Policy{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}
	for _, hint := range []time.Duration{60 * time.Millisecond, 0} {
		calls := 0
		var wait time.Duration
		start := time.Now()
		err := p.Do(context.Background(), func(context.Context) error {
			if calls++; calls == 1 {
				return &busyErr{hint: hint}
			}
			return nil
		}, func(_ int, _ error, w time.Duration) { wait = w })
		elapsed := time.Since(start)
		if err != nil || calls != 2 {
			t.Fatalf("hint %v: Do = %v after %d calls, want success on the retry", hint, err, calls)
		}
		if hint > 0 && (wait != hint || elapsed < hint) {
			t.Fatalf("Do waited %v (returned after %v), hint was %v", wait, elapsed, hint)
		}
		// Without a hint the policy backoff (~1-2ms) applies.
		if hint == 0 && (wait > 2*time.Millisecond || elapsed > 50*time.Millisecond) {
			t.Fatalf("hintless Do waited %v (returned after %v), want the small policy backoff", wait, elapsed)
		}
	}
}
