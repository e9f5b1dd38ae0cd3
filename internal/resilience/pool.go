package resilience

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// SourceFunc lists the current endpoints of an equivalent-service set —
// typically a closure over a registry inquiry (see
// registry.Client.EndpointSource). It is a plain function type so the
// registry package can feed pools without importing this one.
type SourceFunc func(ctx context.Context) ([]string, error)

// Pool selects healthy endpoints for remote invocation. Selection is
// round-robin over the endpoints whose circuit breaker admits traffic;
// tripped endpoints are ejected from the rotation until their cooldown
// elapses. With a source attached, the pool refreshes its endpoint list
// from the registry — the paper's UDDI failover step — so newly
// published equivalent services join the rotation and dead ones leave.
type Pool struct {
	breakers     *breakerSet
	observer     *obs.Registry
	source       SourceFunc
	refreshEvery time.Duration
	label        string

	// latEWMAns smooths successful call latency (see observeLatency);
	// a hedged Do derives its backup-launch delay from it.
	latEWMAns atomic.Int64

	mu          sync.Mutex
	endpoints   []string
	next        int
	lastRefresh time.Time
	refreshing  bool
}

// PoolOption configures a Pool.
type PoolOption func(*Pool)

// WithSource attaches an endpoint source consulted by Refresh.
func WithSource(src SourceFunc) PoolOption {
	return func(p *Pool) { p.source = src }
}

// WithRefreshInterval makes MaybeRefresh consult the source when the
// last refresh is older than d (0 disables periodic refresh).
func WithRefreshInterval(d time.Duration) PoolOption {
	return func(p *Pool) { p.refreshEvery = d }
}

// WithBreakerConfig tunes the per-endpoint breakers.
func WithBreakerConfig(cfg BreakerConfig) PoolOption {
	return func(p *Pool) { p.breakers = newBreakerSet(cfg, p.observer) }
}

// WithObserver directs the pool's (and its breakers') metrics to reg
// instead of obs.Default. Order matters: pass it before
// WithBreakerConfig.
func WithObserver(reg *obs.Registry) PoolOption {
	return func(p *Pool) {
		p.observer = reg
		p.breakers = newBreakerSet(p.breakers.cfg, reg)
	}
}

// NewPool returns a pool seeded with endpoints (which may be empty when
// a source is attached: the first refresh fills it).
func NewPool(endpoints []string, opts ...PoolOption) *Pool {
	p := &Pool{observer: obs.Default}
	p.breakers = newBreakerSet(BreakerConfig{}, p.observer)
	for _, o := range opts {
		o(p)
	}
	p.endpoints = dedup(endpoints)
	p.observer.Gauge("resilience_pool_size").Set(int64(len(p.endpoints)))
	return p
}

func dedup(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, ep := range in {
		if ep == "" || seen[ep] {
			continue
		}
		seen[ep] = true
		out = append(out, ep)
	}
	return out
}

// Endpoints returns the current rotation (healthy or not).
func (p *Pool) Endpoints() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.endpoints...)
}

// Pick returns the next endpoint whose breaker admits traffic,
// preferring endpoints not in skip — the per-call "don't hand a retry
// back to an endpoint it already failed on" rule. A skipped
// endpoint is still returned when it is the only healthy one. Every
// successful Pick must be followed by a Record for that endpoint.
func (p *Pool) Pick(skip ...string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.endpoints) == 0 {
		return "", fmt.Errorf("pool has no endpoints: %w", ErrNoHealthyEndpoint)
	}
	skipped := func(ep string) bool {
		for _, s := range skip {
			if s == ep {
				return true
			}
		}
		return false
	}
	for _, wantSkipped := range []bool{false, true} {
		n := len(p.endpoints)
		for i := 0; i < n; i++ {
			ep := p.endpoints[(p.next+i)%n]
			if skipped(ep) != wantSkipped {
				continue
			}
			if p.breakers.For(ep).Allow() {
				p.next = (p.next + i + 1) % n
				return ep, nil
			}
		}
	}
	return "", fmt.Errorf("%d endpoint(s) tripped or skipped: %w", len(p.endpoints), ErrNoHealthyEndpoint)
}

// Record feeds a call outcome into the endpoint's breaker and exports
// the rotation's health. It must be called exactly once per Pick.
func (p *Pool) Record(endpoint string, err error) {
	br := p.breakers.For(endpoint)
	before := br.State()
	br.Record(ClassifyErr(err))
	after := br.State()
	if before != stateOpen && after == stateOpen {
		p.observer.Counter("resilience_endpoint_ejections_total", "endpoint="+endpoint).Inc()
		resLog.Warn(nil, "endpoint_ejected", "endpoint", endpoint)
	}
	p.exportHealth()
}

func (p *Pool) exportHealth() {
	p.mu.Lock()
	healthy := 0
	for _, ep := range p.endpoints {
		if p.breakers.For(ep).State() != stateOpen {
			healthy++
		}
	}
	n := len(p.endpoints)
	p.mu.Unlock()
	p.observer.Gauge("resilience_pool_size").Set(int64(n))
	p.observer.Gauge("resilience_pool_healthy").Set(int64(healthy))
}

// Refresh replaces the rotation with the source's current endpoint
// list, preserving breaker state for endpoints that stay. An error or
// an empty result leaves the rotation untouched: a registry outage must
// not empty a working pool.
func (p *Pool) Refresh(ctx context.Context) error {
	if p.source == nil {
		return nil
	}
	p.mu.Lock()
	if p.refreshing {
		p.mu.Unlock()
		return nil
	}
	p.refreshing = true
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.refreshing = false
		p.mu.Unlock()
	}()

	p.observer.Counter("resilience_pool_refreshes_total").Inc()
	eps, err := p.source(ctx)
	now := time.Now()
	if err != nil {
		p.observer.Counter("resilience_pool_refresh_errors_total").Inc()
		resLog.Warn(ctx, "pool_refresh", "err", err)
		p.mu.Lock()
		p.lastRefresh = now
		p.mu.Unlock()
		return err
	}
	eps = dedup(eps)
	if len(eps) == 0 {
		p.mu.Lock()
		p.lastRefresh = now
		p.mu.Unlock()
		return nil
	}
	keep := map[string]bool{}
	for _, ep := range eps {
		keep[ep] = true
	}
	p.mu.Lock()
	p.endpoints = eps
	p.next = p.next % len(eps)
	p.lastRefresh = now
	p.mu.Unlock()
	p.breakers.Prune(keep)
	p.exportHealth()
	return nil
}

// MaybeRefresh runs Refresh when the pool has never refreshed or the
// refresh interval has elapsed.
func (p *Pool) MaybeRefresh(ctx context.Context) {
	if p.source == nil {
		return
	}
	p.mu.Lock()
	stale := p.lastRefresh.IsZero() ||
		(p.refreshEvery > 0 && time.Since(p.lastRefresh) >= p.refreshEvery)
	p.mu.Unlock()
	if stale {
		_ = p.Refresh(ctx)
	}
}

// Do invokes fn against pool endpoints under the retry policy (see
// Policy.Do). Each attempt picks a healthy endpoint, preferring one the
// call has not yet failed on, calls fn and records the outcome
// in that endpoint's breaker. A failed pick refreshes the pool from its
// source, so newly published equivalent services can rescue the call.
// It returns the endpoint of the final attempt.
//
// With hp non-nil each attempt is a hedged race (see hedgedRace). Hedging
// re-sends the same invocation, so fn MUST then be idempotent: both
// attempts can execute to completion on different replicas. Reserve it
// for read and pure-compute operations (scoring, inquiry, deterministic
// training against a content-addressed store) and pass nil for mutating
// calls.
func (p *Pool) Do(ctx context.Context, pol *Policy, hp *HedgePolicy, fn func(ctx context.Context, endpoint string) error) (string, error) {
	var lastEp string
	var skip []string // every endpoint this call has failed on
	err := pol.Do(ctx, func(ctx context.Context) error {
		p.MaybeRefresh(ctx)
		ep, err := p.Pick(skip...)
		if err != nil {
			// Re-pull the source on every failed pick, not just the first:
			// under replica churn a restarted server re-registers between
			// attempts, and a pool that only refreshed once stays blind to
			// it for the rest of the call.
			_ = p.Refresh(ctx)
			return err
		}
		if hp != nil {
			lastEp, err = p.hedgedRace(ctx, hp, ep, fn)
		} else {
			began := time.Now()
			err = fn(ctx, ep)
			p.Record(ep, err)
			if err == nil {
				p.observeLatency(time.Since(began))
			}
			lastEp = ep
		}
		if err != nil {
			skip = append(skip, lastEp)
		}
		return err
	}, func(int, error, time.Duration) {
		p.observer.Counter("resilience_retries_total").Inc()
	})
	return lastEp, err
}
