package resilience

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// state is a breaker's position in the closed → open → half-open cycle.
type state int

const (
	// stateClosed admits all traffic.
	stateClosed state = iota
	// stateHalfOpen admits a bounded number of probe calls.
	stateHalfOpen
	// stateOpen rejects traffic until the cooldown elapses.
	stateOpen
)

// String renders the state for logs and metric labels.
func (s state) String() string {
	switch s {
	case stateClosed:
		return "closed"
	case stateHalfOpen:
		return "half-open"
	case stateOpen:
		return "open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a circuit breaker. An open breaker admits one
// half-open probe after breakerCooldown, and one probe success closes it.
type BreakerConfig struct {
	// FailureThreshold trips the breaker after this many consecutive
	// retryable failures; <=0 means 5.
	FailureThreshold int
}

// breakerCooldown is how long an open breaker rejects before it admits a
// half-open probe.
const breakerCooldown = 5 * time.Second

func (c BreakerConfig) failureThreshold() int {
	if c.FailureThreshold <= 0 {
		return 5
	}
	return c.FailureThreshold
}

// breaker is a three-state circuit breaker for one endpoint. A nil
// *breaker admits everything and records nothing, so callers can thread
// an optional breaker without nil checks.
type breaker struct {
	cfg      BreakerConfig
	endpoint string
	now      func() time.Time

	mu          sync.Mutex
	state       state
	consecutive int // consecutive retryable failures while closed
	openedAt    time.Time
	probeInUse  bool // a half-open probe call is in flight
}

// newBreaker returns a closed breaker for an endpoint.
func newBreaker(endpoint string, cfg BreakerConfig) *breaker {
	b := &breaker{cfg: cfg, endpoint: endpoint, now: time.Now}
	b.setStateGauge(stateClosed)
	return b
}

// Allow reports whether a call may proceed. On an open breaker whose
// cooldown has elapsed it transitions to half-open and admits one probe;
// every admitted half-open call must be answered with Record or the
// probe slot stays occupied.
func (b *breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		if b.now().Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.toHalfOpenLocked()
		b.probeInUse = true
		return true
	case stateHalfOpen:
		if b.probeInUse {
			return false
		}
		b.probeInUse = true
		return true
	}
	return true
}

// Record feeds a call outcome back into the breaker. Success and
// Permanent outcomes count as healthy (a soap:Client fault means the
// caller erred, not the endpoint); Retryable counts as a failure;
// Aborted and Busy release any probe slot without judging the endpoint —
// a shed (ServerBusy) request is deliberate admission control by a live
// server, so it must not trip the consecutive-failure counter.
func (b *breaker) Record(cls Class) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch cls {
	case Aborted, Busy:
		b.probeInUse = false
	case Retryable:
		b.recordFailureLocked()
	default: // Success, Permanent
		b.recordSuccessLocked()
	}
}

// State returns the breaker's current state (open breakers whose
// cooldown has elapsed still report open until a call probes them).
func (b *breaker) State() state {
	if b == nil {
		return stateClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *breaker) recordSuccessLocked() {
	switch b.state {
	case stateClosed:
		b.consecutive = 0
	case stateHalfOpen:
		b.toClosedLocked()
	case stateOpen:
		// A straggler from before the trip; ignore.
	}
}

func (b *breaker) recordFailureLocked() {
	switch b.state {
	case stateClosed:
		b.consecutive++
		if b.consecutive >= b.cfg.failureThreshold() {
			b.toOpenLocked()
		}
	case stateHalfOpen:
		b.probeInUse = false
		b.toOpenLocked()
	case stateOpen:
	}
}

func (b *breaker) toOpenLocked() {
	b.state = stateOpen
	b.openedAt = b.now()
	b.consecutive = 0
	obs.Default.Counter("resilience_breaker_opens_total", "endpoint="+b.endpoint).Inc()
	b.setStateGauge(stateOpen)
	resLog.Warn(nil, "breaker_open", "endpoint", b.endpoint)
}

func (b *breaker) toHalfOpenLocked() {
	b.state = stateHalfOpen
	b.probeInUse = false
	obs.Default.Counter("resilience_breaker_halfopen_total", "endpoint="+b.endpoint).Inc()
	b.setStateGauge(stateHalfOpen)
	resLog.Info(nil, "breaker_half_open", "endpoint", b.endpoint)
}

func (b *breaker) toClosedLocked() {
	b.state = stateClosed
	b.consecutive = 0
	b.probeInUse = false
	obs.Default.Counter("resilience_breaker_closes_total", "endpoint="+b.endpoint).Inc()
	b.setStateGauge(stateClosed)
	resLog.Info(nil, "breaker_closed", "endpoint", b.endpoint)
}

// setStateGauge exports the state as 0 (closed) / 1 (half-open) / 2 (open).
func (b *breaker) setStateGauge(s state) {
	obs.Default.Gauge("resilience_breaker_state", "endpoint="+b.endpoint).Set(int64(s))
}

// breakerSet lazily manages one breaker per endpoint under a shared
// configuration. A nil *breakerSet hands out nil breakers, which admit
// everything.
type breakerSet struct {
	cfg BreakerConfig

	mu sync.Mutex
	m  map[string]*breaker
}

// newBreakerSet returns an empty set.
func newBreakerSet(cfg BreakerConfig) *breakerSet {
	return &breakerSet{cfg: cfg, m: map[string]*breaker{}}
}

// For returns (creating on first use) the endpoint's breaker.
func (s *breakerSet) For(endpoint string) *breaker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[endpoint]
	if !ok {
		b = newBreaker(endpoint, s.cfg)
		s.m[endpoint] = b
	}
	return b
}

// Prune drops breakers for endpoints no longer in keep, so a registry
// refresh does not leak state for services that left the rotation.
func (s *breakerSet) Prune(keep map[string]bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for ep := range s.m {
		if !keep[ep] {
			delete(s.m, ep)
		}
	}
}
