package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

type serverFault struct{}

func (serverFault) Error() string     { return "soap fault soap:Server" }
func (serverFault) FaultCode() string { return "soap:Server" }

func TestPoolRoundRobinAndSkip(t *testing.T) {
	p := NewPool([]string{"a", "b", "c"})
	var got []string
	for i := 0; i < 3; i++ {
		ep, err := p.Pick()
		if err != nil {
			t.Fatal(err)
		}
		p.Record(ep, nil)
		got = append(got, ep)
	}
	if fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("rotation = %v, want [a b c]", got)
	}
	// The retry after a failure on "a" must not land on "a".
	ep, err := p.Pick("a")
	if err != nil {
		t.Fatal(err)
	}
	if ep == "a" {
		t.Fatal("pick returned the skipped endpoint while others were healthy")
	}
	p.Record(ep, nil)
}

func TestPoolSkippedEndpointIsLastResort(t *testing.T) {
	p := NewPool([]string{"a", "b"},
		WithBreakerConfig(BreakerConfig{FailureThreshold: 1}))
	// Trip b; only a remains, and a is skipped — it must still be offered.
	p.Record("b", serverFault{})
	ep, err := p.Pick("a")
	if err != nil {
		t.Fatal(err)
	}
	if ep != "a" {
		t.Fatalf("pick = %q, want the skipped-but-only-healthy %q", ep, "a")
	}
	p.Record(ep, nil)
}

func TestPoolEjectsTrippedEndpoints(t *testing.T) {
	ejections := obs.Default.Counter("resilience_endpoint_ejections_total", "endpoint=bad")
	ejectionsBefore := ejections.Value()
	p := NewPool([]string{"bad", "good"},
		WithBreakerConfig(BreakerConfig{FailureThreshold: 2}))
	p.Record("bad", serverFault{})
	p.Record("bad", serverFault{})
	for i := 0; i < 4; i++ {
		ep, err := p.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if ep != "good" {
			t.Fatalf("pick %d = %q, want the healthy endpoint", i, ep)
		}
		p.Record(ep, nil)
	}
	if got := ejections.Value() - ejectionsBefore; got != 1 {
		t.Fatalf("ejections counter rose by %d, want 1", got)
	}
	if got := obs.Default.Gauge("resilience_pool_healthy").Value(); got != 1 {
		t.Fatalf("healthy gauge = %d, want 1", got)
	}
	// All tripped: Pick reports a retryable no-endpoint error.
	p.Record("good", serverFault{})
	p.Record("good", serverFault{})
	if _, err := p.Pick(); !errors.Is(err, ErrNoHealthyEndpoint) {
		t.Fatalf("all-tripped pick error = %v, want ErrNoHealthyEndpoint", err)
	}
}

func TestPoolRefreshFromSource(t *testing.T) {
	var mu sync.Mutex
	eps := []string{"a", "b"}
	var calls int
	src := func(ctx context.Context) ([]string, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return append([]string(nil), eps...), nil
	}
	p := NewPool(nil, WithSource(src))
	if err := p.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Endpoints(); fmt.Sprint(got) != "[a b]" {
		t.Fatalf("endpoints = %v, want [a b]", got)
	}
	// A newly published equivalent service joins; a dead one leaves.
	mu.Lock()
	eps = []string{"b", "c"}
	mu.Unlock()
	if err := p.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Endpoints(); fmt.Sprint(got) != "[b c]" {
		t.Fatalf("endpoints after refresh = %v, want [b c]", got)
	}
	// Registry outage or an empty inquiry must not wipe a working pool.
	mu.Lock()
	eps = nil
	mu.Unlock()
	if err := p.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Endpoints(); fmt.Sprint(got) != "[b c]" {
		t.Fatalf("empty refresh emptied the pool: %v", got)
	}
	mu.Lock()
	if calls != 3 {
		t.Fatalf("source consulted %d times, want 3", calls)
	}
	mu.Unlock()
}

func TestPoolDoFailsOverToHealthyEndpoint(t *testing.T) {
	retries := obs.Default.Counter("resilience_retries_total")
	retriesBefore := retries.Value()
	p := NewPool([]string{"bad", "good"},
		WithBreakerConfig(BreakerConfig{FailureThreshold: 2}))
	pol := &Policy{MaxAttempts: 3, BackoffBase: time.Millisecond}
	var tried []string
	ep, err := p.Do(context.Background(), pol, nil, func(ctx context.Context, endpoint string) error {
		tried = append(tried, endpoint)
		if endpoint == "bad" {
			return serverFault{}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ep != "good" {
		t.Fatalf("Do finished on %q, want good", ep)
	}
	if len(tried) != 2 || tried[0] != "bad" || tried[1] != "good" {
		t.Fatalf("attempt sequence = %v, want [bad good]", tried)
	}
	if got := retries.Value() - retriesBefore; got != 1 {
		t.Fatalf("retries counter rose by %d, want 1", got)
	}
}

// TestPoolDoNeverReturnsToAFailedEndpoint: a call's retries avoid every
// endpoint the call has failed on, not just the last one, even when other
// callers move the shared rotation between its attempts. Two of three
// replicas always fail and the default breaker stays closed throughout.
func TestPoolDoNeverReturnsToAFailedEndpoint(t *testing.T) {
	p := NewPool([]string{"bad1", "bad2", "good"})
	call := func(endpoint string) error {
		if endpoint != "good" {
			return serverFault{}
		}
		return nil
	}
	var tried []string
	ep, err := p.Do(context.Background(), &Policy{MaxAttempts: 3, BackoffBase: time.Millisecond}, nil,
		func(ctx context.Context, endpoint string) error {
			tried = append(tried, endpoint)
			err := call(endpoint)
			if err != nil {
				// Another job, served between this call's attempts, takes
				// picks until it lands on the healthy replica.
				for {
					other, perr := p.Pick()
					if perr != nil {
						t.Fatal(perr)
					}
					oerr := call(other)
					p.Record(other, oerr)
					if oerr == nil {
						break
					}
				}
			}
			return err
		})
	if err != nil {
		t.Fatalf("Do failed after %v: %v", tried, err)
	}
	if ep != "good" || fmt.Sprint(tried) != "[bad1 bad2 good]" {
		t.Fatalf("attempts went to %v, finishing on %q; want [bad1 bad2 good]", tried, ep)
	}
}

func TestPoolDoStopsOnPermanentFault(t *testing.T) {
	p := NewPool([]string{"a", "b"})
	calls := 0
	clientFault := &fault{"soap:Client"}
	_, err := p.Do(context.Background(), &Policy{MaxAttempts: 4, BackoffBase: time.Millisecond}, nil,
		func(ctx context.Context, endpoint string) error {
			calls++
			return clientFault
		})
	if !errors.Is(err, error(clientFault)) {
		t.Fatalf("err = %v, want the client fault", err)
	}
	if calls != 1 {
		t.Fatalf("permanent fault attempted %d times, want 1", calls)
	}
}

func TestPoolDoRefreshesWhenAllTripped(t *testing.T) {
	src := func(ctx context.Context) ([]string, error) { return []string{"fresh"}, nil }
	p := NewPool([]string{"dead"},
		WithSource(src),
		WithBreakerConfig(BreakerConfig{FailureThreshold: 1}))
	// Use up the first refresh so the pool starts from just {dead}… the
	// source already lists only "fresh", so the first MaybeRefresh swaps
	// it in. To exercise the all-tripped path, trip "fresh" too and
	// point the source at a replacement.
	p.Record("dead", serverFault{})
	ep, err := p.Do(context.Background(), &Policy{MaxAttempts: 2, BackoffBase: time.Millisecond}, nil,
		func(ctx context.Context, endpoint string) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if ep != "fresh" {
		t.Fatalf("Do used %q, want the registry-refreshed endpoint", ep)
	}
}
