// Package resilience is the policy-driven invocation substrate behind
// every remote call the toolkit makes. The paper's headline claim for
// FAEHIM is fault-tolerant composition: when a deployed data-mining
// service fails, the workflow engine locates an equivalent service via
// the UDDI registry and re-invokes it (§3, §4). This package provides
// the three mechanisms that claim needs in practice:
//
//   - Policy: the one retry loop (Policy.Do) with exponential backoff +
//     deterministic jitter, Retry-After hints and fault classification
//     (network errors and soap:Server faults are retryable, soap:Client
//     faults are not, a dead caller context aborts).
//   - breaker: a per-endpoint three-state circuit breaker (closed →
//     open on consecutive-failure or error-rate threshold → half-open
//     probe) so a dead service stops receiving traffic instead of
//     burning every caller's retry budget.
//   - Pool: health-aware endpoint selection that ejects tripped
//     endpoints from the rotation and refreshes itself from a registry
//     inquiry — the paper's UDDI failover step — so newly published
//     equivalent services join the rotation and dead ones leave.
//
// Every state change is exported through internal/obs so /metrics shows
// the failover happening.
package resilience

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/url"
	"sync"
	"time"

	"repro/internal/obs"
)

// errOpen reports a call rejected because the endpoint's circuit breaker
// is open. It is retryable: a later attempt may find the breaker
// half-open or another endpoint healthy.
var errOpen = errors.New("resilience: circuit open")

// ErrNoHealthyEndpoint reports a pool pick that found no endpoint whose
// breaker admits traffic. It is retryable: cooldowns elapse and registry
// refreshes add endpoints.
var ErrNoHealthyEndpoint = errors.New("resilience: no healthy endpoint")

// Class buckets a call outcome for retry and breaker decisions.
type Class int

const (
	// Success is a nil error.
	Success Class = iota
	// Retryable failures (network errors, soap:Server faults, attempt
	// timeouts) are worth re-invoking, preferably elsewhere.
	Retryable
	// Permanent failures (soap:Client faults — bad requests) fail
	// immediately: retrying an unknown classifier never helps.
	Permanent
	// Aborted means the caller's context ended; no further attempts.
	Aborted
	// Busy means the server shed the request under admission control
	// (a BusyFaultCode fault). It is retried like Retryable — honouring
	// any Retry-After hint — but it is deliberate load shedding by a
	// live server, not evidence of endpoint failure, so breakers stay
	// neutral: a shedding replica must not be ejected from the rotation.
	Busy
)

// Retries reports whether an outcome of this class is worth another
// attempt: Retryable and Busy are, everything else ends the call.
func (c Class) Retries() bool { return c == Retryable || c == Busy }

// String renders the class for logs and metric labels.
func (c Class) String() string {
	switch c {
	case Success:
		return "success"
	case Retryable:
		return "retryable"
	case Permanent:
		return "permanent"
	case Aborted:
		return "aborted"
	case Busy:
		return "busy"
	default:
		return "unknown"
	}
}

// BusyFaultCode is the fault code of a request shed by server-side
// admission control (queue full, deadline unmeetable, or draining). The
// SOAP 1.1 dotted form keeps it a soap:Server subclass on the wire while
// letting clients distinguish deliberate shedding from real failure.
const BusyFaultCode = "soap:Server.Busy"

// RetryAfter extracts a server's Retry-After hint from an error chain
// (soap faults expose it via RetryAfterHint). Zero means no hint.
func RetryAfter(err error) time.Duration {
	var h interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &h) {
		if d := h.RetryAfterHint(); d > 0 {
			return d
		}
	}
	return 0
}

// transientError marks a failure its producer knows to be worth
// retrying, whatever its shape (see Transient).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so ClassifyErr calls it Retryable — for failures
// whose shape alone would read as permanent (an executor's own "try
// again" condition). A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// ClassifyErr buckets an error by its shape alone. SOAP faults are
// recognised through the FaultCode interface (the same contract
// obs.FaultClass uses) so this package needs no dependency on the soap
// package. A bare context.DeadlineExceeded is Retryable here — it is the
// signature of a per-attempt timeout; use Classify when a caller context
// is available to distinguish the caller's own deadline.
func ClassifyErr(err error) Class {
	if err == nil {
		return Success
	}
	if errors.Is(err, context.Canceled) {
		return Aborted
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return Retryable
	}
	var te *transientError
	if errors.As(err, &te) {
		return Retryable
	}
	if errors.Is(err, errOpen) || errors.Is(err, ErrNoHealthyEndpoint) {
		return Retryable
	}
	var fc interface{ FaultCode() string }
	if errors.As(err, &fc) {
		switch fc.FaultCode() {
		case "soap:Client":
			return Permanent
		case BusyFaultCode:
			return Busy
		default:
			return Retryable
		}
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return Retryable
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return Retryable
	}
	return Permanent
}

// classify buckets an error in the light of the caller's context: once
// ctx itself is done the outcome is Aborted regardless of the error —
// the caller's deadline has passed and no retry can run.
func classify(ctx context.Context, err error) Class {
	if ctx != nil && ctx.Err() != nil {
		return Aborted
	}
	return ClassifyErr(err)
}

// Policy is a retry policy: attempt budget plus exponential backoff with
// deterministic, seeded jitter. The zero value (and a nil *Policy) is
// usable with the defaults below.
type Policy struct {
	// MaxAttempts bounds total attempts (first try included); <=0 means 3.
	MaxAttempts int
	// BackoffBase is the first retry delay, doubling each retry up to
	// BackoffMax; <=0 means 50ms (and 2s for the cap). Each delay is
	// jittered to 50-150% of its nominal value.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the jitter sequence deterministic; 0 means 1.
	Seed int64

	mu  sync.Mutex
	rng *rand.Rand
}

// defaultPolicy backs nil *Policy receivers.
var defaultPolicy = &Policy{}

// Attempts returns the attempt budget.
func (p *Policy) Attempts() int {
	if p == nil || p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

// Backoff returns the jittered delay after attempt completed attempts
// (1-based): base<<(attempt-1) capped at max, scaled by a deterministic
// uniform factor in [0.5, 1.5).
func (p *Policy) Backoff(attempt int) time.Duration {
	if p == nil {
		p = defaultPolicy
	}
	base := p.BackoffBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.BackoffMax
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	p.mu.Lock()
	if p.rng == nil {
		seed := p.Seed
		if seed == 0 {
			seed = 1
		}
		p.rng = rand.New(rand.NewSource(seed))
	}
	jitter := time.Duration(p.rng.Int63n(int64(d)))
	p.mu.Unlock()
	return d/2 + jitter
}

// Do runs fn until it succeeds, fails in a class that does not retry
// (see Class.Retries), spends the attempt budget or outlives ctx. Between
// attempts it calls onRetry (when non-nil) and then waits
// max(Backoff(attempt), RetryAfter(err)), so a shedding server is never
// re-approached before the moment it asked for. It returns fn's last
// error, or ctx's error when ctx ended before the first attempt. This is
// the one retry loop: every caller that re-attempts a remote call does
// so through it.
func (p *Policy) Do(ctx context.Context, fn func(ctx context.Context) error, onRetry func(attempt int, err error, wait time.Duration)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	attempts := p.Attempts()
	for attempt := 1; ; attempt++ {
		err := fn(ctx)
		if attempt >= attempts || !classify(ctx, err).Retries() {
			return err
		}
		wait := p.Backoff(attempt)
		if hint := RetryAfter(err); hint > wait {
			wait = hint
		}
		if onRetry != nil {
			onRetry(attempt, err, wait)
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
		if ctx.Err() != nil {
			return err
		}
	}
}

var resLog = obs.L("resilience")
