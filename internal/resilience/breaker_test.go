package resilience

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock drives breaker cooldowns without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(cfg BreakerConfig) (*breaker, *fakeClock, *obs.Registry) {
	reg := obs.NewRegistry()
	b := newBreaker("http://svc", cfg, reg)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clock.now
	return b, clock, reg
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	b, _, reg := newTestBreaker(BreakerConfig{FailureThreshold: 3})
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Record(Retryable)
		if b.State() != stateClosed {
			t.Fatalf("tripped after %d failures, threshold is 3", i+1)
		}
	}
	// A success resets the consecutive count.
	b.Record(Success)
	b.Record(Retryable)
	b.Record(Retryable)
	if b.State() != stateClosed {
		t.Fatal("success did not reset the consecutive-failure count")
	}
	b.Record(Retryable)
	if b.State() != stateOpen {
		t.Fatal("breaker did not open at the threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	if got := reg.Counter("resilience_breaker_opens_total", "endpoint=http://svc").Value(); got != 1 {
		t.Fatalf("opens counter = %d, want 1", got)
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	b, clock, _ := newTestBreaker(BreakerConfig{FailureThreshold: 1})
	b.Record(Retryable)
	if b.State() != stateOpen {
		t.Fatal("breaker not open")
	}
	clock.advance(breakerCooldown)
	if !b.Allow() {
		t.Fatal("cooled-down breaker rejected the probe")
	}
	if b.State() != stateHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Failed probe reopens.
	b.Record(Retryable)
	if b.State() != stateOpen {
		t.Fatal("failed probe did not reopen the breaker")
	}
	clock.advance(breakerCooldown)
	if !b.Allow() {
		t.Fatal("second probe rejected")
	}
	b.Record(Success)
	if b.State() != stateClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected traffic")
	}
}

// An open breaker rejects for the whole of breakerCooldown and admits its
// probe once that has passed.
func TestBreakerCooldownBoundary(t *testing.T) {
	b, clock, _ := newTestBreaker(BreakerConfig{FailureThreshold: 1})
	b.Record(Retryable)
	clock.advance(breakerCooldown - time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker admitted a probe before the cooldown ended")
	}
	if b.State() != stateOpen {
		t.Fatalf("state = %v, want open during the cooldown", b.State())
	}
	clock.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker rejected the probe once the cooldown ended")
	}
}

// A zero FailureThreshold means five consecutive failures.
func TestBreakerDefaultThreshold(t *testing.T) {
	b, _, _ := newTestBreaker(BreakerConfig{})
	for i := 0; i < 4; i++ {
		b.Record(Retryable)
	}
	if b.State() != stateClosed {
		t.Fatal("tripped after 4 failures, default threshold is 5")
	}
	b.Record(Retryable)
	if b.State() != stateOpen {
		t.Fatal("did not trip at the default threshold of 5")
	}
}

// soap:Client faults mean the caller erred, not the endpoint: they must
// never trip the breaker. Aborted outcomes release the probe slot.
func TestBreakerOutcomeSemantics(t *testing.T) {
	b, clock, _ := newTestBreaker(BreakerConfig{FailureThreshold: 1})
	for i := 0; i < 10; i++ {
		b.Record(Permanent)
	}
	if b.State() != stateClosed {
		t.Fatal("permanent (caller) faults tripped the breaker")
	}
	b.Record(Retryable)
	clock.advance(breakerCooldown)
	if !b.Allow() {
		t.Fatal("probe rejected")
	}
	b.Record(Aborted) // caller gave up; endpoint unjudged
	if b.State() != stateHalfOpen {
		t.Fatalf("state = %v, want half-open after aborted probe", b.State())
	}
	if !b.Allow() {
		t.Fatal("aborted probe did not release the probe slot")
	}
}

func TestNilBreakerIsOpenBar(t *testing.T) {
	var b *breaker
	if !b.Allow() {
		t.Fatal("nil breaker rejected a call")
	}
	b.Record(Retryable) // must not panic
	if b.State() != stateClosed {
		t.Fatal("nil breaker not closed")
	}
	var s *breakerSet
	if s.For("x") != nil {
		t.Fatal("nil set returned a breaker")
	}
	s.Prune(nil) // must not panic
}

func TestBreakerSetPrune(t *testing.T) {
	s := newBreakerSet(BreakerConfig{FailureThreshold: 1}, obs.NewRegistry())
	s.For("a").Record(Retryable)
	s.For("b")
	s.Prune(map[string]bool{"b": true})
	if got := s.For("a").State(); got != stateClosed {
		t.Fatalf("pruned breaker kept state %v", got)
	}
}
