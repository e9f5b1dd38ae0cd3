package resilience

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// slowFastFns returns a call function where endpoint "slow" blocks until
// cancelled (or the stall elapses) and every other endpoint answers in a
// few milliseconds. slowCancelled records how long the slow attempt
// lived before its context was cancelled (-1 while unset).
func slowFastFns(stall time.Duration, slowLived *atomic.Int64) func(ctx context.Context, ep string) error {
	return func(ctx context.Context, ep string) error {
		if ep == "slow" {
			began := time.Now()
			select {
			case <-time.After(stall):
				return nil
			case <-ctx.Done():
				if slowLived != nil {
					slowLived.Store(int64(time.Since(began)))
				}
				return ctx.Err()
			}
		}
		time.Sleep(2 * time.Millisecond)
		return nil
	}
}

func TestHedgeDelay(t *testing.T) {
	var hp *HedgePolicy // nil policy: all defaults
	if got := hp.HedgeDelay(50 * time.Millisecond); got != 100*time.Millisecond {
		t.Fatalf("HedgeDelay(50ms) = %v, want 100ms (2x EWMA)", got)
	}
	if got := hp.HedgeDelay(time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("HedgeDelay(1ms) = %v, want the 20ms floor", got)
	}
	if got := hp.HedgeDelay(0); got != 2*time.Second {
		t.Fatalf("HedgeDelay(0) = %v, want the 2s ceiling for a cold pool", got)
	}
	if got := hp.HedgeDelay(10 * time.Second); got != 2*time.Second {
		t.Fatalf("HedgeDelay(10s) = %v, want the 2s ceiling", got)
	}
	fixed := &HedgePolicy{Delay: 7 * time.Millisecond}
	if got := fixed.HedgeDelay(50 * time.Millisecond); got != 7*time.Millisecond {
		t.Fatalf("fixed HedgeDelay = %v, want 7ms", got)
	}
}

func TestPoolLatencyEWMA(t *testing.T) {
	p := NewPool([]string{"a"}, WithObserver(obs.NewRegistry()))
	if p.LatencyEWMA() != 0 {
		t.Fatalf("cold pool EWMA = %v, want 0", p.LatencyEWMA())
	}
	p.observeLatency(100 * time.Millisecond)
	if got := p.LatencyEWMA(); got != 100*time.Millisecond {
		t.Fatalf("first observation EWMA = %v, want 100ms", got)
	}
	p.observeLatency(200 * time.Millisecond)
	if got := p.LatencyEWMA(); got != 125*time.Millisecond {
		t.Fatalf("EWMA after 100ms,200ms = %v, want 125ms ((3*100+200)/4)", got)
	}
	// Do's success path must feed the EWMA.
	p2 := NewPool([]string{"a"}, WithObserver(obs.NewRegistry()))
	_, err := p2.Do(context.Background(), nil, nil, func(ctx context.Context, ep string) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.LatencyEWMA() < 5*time.Millisecond {
		t.Fatalf("Do did not feed the latency EWMA: %v", p2.LatencyEWMA())
	}
}

// TestDoHedgedBackupWins: the primary stalls past the hedge delay, the
// backup answers, the call returns the backup's endpoint quickly, and
// the loser is cancelled promptly rather than running out its stall.
func TestDoHedgedBackupWins(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool([]string{"slow", "fast"}, WithObserver(reg))
	var slowLived atomic.Int64
	slowLived.Store(-1)
	var hs HedgeStats
	ctx := WithHedgeStats(context.Background(), &hs)

	began := time.Now()
	ep, err := p.Do(ctx, nil, &HedgePolicy{Delay: 20 * time.Millisecond},
		slowFastFns(5*time.Second, &slowLived))
	elapsed := time.Since(began)
	if err != nil {
		t.Fatal(err)
	}
	if ep != "fast" {
		t.Fatalf("winner = %q, want the hedged backup", ep)
	}
	// Do awaits the loser, so the cancellation must have landed.
	if lived := slowLived.Load(); lived < 0 || time.Duration(lived) > time.Second {
		t.Fatalf("slow attempt lived %v before cancel, want prompt cancellation", time.Duration(lived))
	}
	if elapsed > time.Second {
		t.Fatalf("hedged call took %v, want well under the 5s stall", elapsed)
	}
	if hs.Launched.Load() != 1 || hs.Wins.Load() != 1 {
		t.Fatalf("stats launched=%d wins=%d, want 1/1", hs.Launched.Load(), hs.Wins.Load())
	}
	snap := reg.Snapshot()
	if snap.Counters["resilience_hedges_total"] != 1 {
		t.Fatalf("resilience_hedges_total = %d, want 1", snap.Counters["resilience_hedges_total"])
	}
	if snap.Counters["resilience_hedge_wins_total"] != 1 {
		t.Fatalf("resilience_hedge_wins_total = %d, want 1", snap.Counters["resilience_hedge_wins_total"])
	}
}

// TestDoHedgedPrimaryWins: a healthy primary answers inside the hedge
// delay, so no backup launches at all.
func TestDoHedgedPrimaryWins(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool([]string{"fast", "other"}, WithObserver(reg))
	var hs HedgeStats
	ctx := WithHedgeStats(context.Background(), &hs)
	ep, err := p.Do(ctx, nil, &HedgePolicy{Delay: 500 * time.Millisecond},
		func(ctx context.Context, ep string) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if ep == "" {
		t.Fatal("no winner")
	}
	if hs.Launched.Load() != 0 {
		t.Fatalf("launched %d hedges for a fast primary, want 0", hs.Launched.Load())
	}
	if got := reg.Snapshot().Counters["resilience_hedges_total"]; got != 0 {
		t.Fatalf("resilience_hedges_total = %d, want 0", got)
	}
}

// TestDoHedgedLoserBreakerNeutral: losing the race is not evidence of
// endpoint failure — many straight losses must leave the slow endpoint's
// breaker closed.
func TestDoHedgedLoserBreakerNeutral(t *testing.T) {
	p := NewPool([]string{"slow", "fast"}, WithObserver(obs.NewRegistry()))
	for i := 0; i < 20; i++ {
		_, err := p.Do(context.Background(), nil, &HedgePolicy{Delay: 5 * time.Millisecond},
			slowFastFns(5*time.Second, nil))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if st := p.breakers.For("slow").State(); st != stateClosed {
		t.Fatalf("slow endpoint breaker = %v after 20 lost races, want closed", st)
	}
}

// TestDoHedgedNoGoroutineLeak: every attempt goroutine is awaited before
// Do returns, so repeated hedged calls leave the goroutine count
// where it started.
func TestDoHedgedNoGoroutineLeak(t *testing.T) {
	p := NewPool([]string{"slow", "fast"}, WithObserver(obs.NewRegistry()))
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, err := p.Do(context.Background(), nil, &HedgePolicy{Delay: time.Millisecond},
			slowFastFns(time.Minute, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain: give any stray goroutine a moment to exit before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after 50 hedged calls", before, runtime.NumGoroutine())
}

// TestDoHedgedSingleEndpoint: with one endpoint there is nobody to hedge
// to; the timer path must not wedge the call or poison the breaker.
func TestDoHedgedSingleEndpoint(t *testing.T) {
	p := NewPool([]string{"only"}, WithObserver(obs.NewRegistry()))
	ep, err := p.Do(context.Background(), nil, &HedgePolicy{Delay: time.Millisecond},
		func(ctx context.Context, ep string) error {
			time.Sleep(20 * time.Millisecond)
			return nil
		})
	if err != nil || ep != "only" {
		t.Fatalf("hedged Do = %q, %v", ep, err)
	}
	if st := p.breakers.For("only").State(); st != stateClosed {
		t.Fatalf("breaker = %v, want closed", st)
	}
}

// testFault is a minimal SOAP-fault-shaped error for classification.
type testFault struct{ code string }

func (f *testFault) Error() string     { return f.code }
func (f *testFault) FaultCode() string { return f.code }

// TestDoHedgedRetriesAcrossRounds: when a round fails retryably, the
// outer retry loop moves to another round like Do does.
func TestDoHedgedRetriesAcrossRounds(t *testing.T) {
	p := NewPool([]string{"a", "b"}, WithObserver(obs.NewRegistry()))
	var calls atomic.Int64
	ep, err := p.Do(context.Background(), &Policy{MaxAttempts: 3, BackoffBase: time.Millisecond},
		&HedgePolicy{Delay: 500 * time.Millisecond},
		func(ctx context.Context, ep string) error {
			if calls.Add(1) < 3 {
				return &testFault{code: "soap:Server"}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("hedged Do after retries: %v (endpoint %q)", err, ep)
	}
	if calls.Load() != 3 {
		t.Fatalf("made %d calls, want 3", calls.Load())
	}
}

// TestDoHedgedPermanentErrorStops: a permanent (caller) fault must not
// burn retries or hedges.
func TestDoHedgedPermanentErrorStops(t *testing.T) {
	p := NewPool([]string{"a", "b"}, WithObserver(obs.NewRegistry()))
	var calls atomic.Int64
	_, err := p.Do(context.Background(), &Policy{MaxAttempts: 5, BackoffBase: time.Millisecond},
		&HedgePolicy{Delay: 500 * time.Millisecond},
		func(ctx context.Context, ep string) error {
			calls.Add(1)
			return &testFault{code: "soap:Client"}
		})
	if err == nil {
		t.Fatal("permanent fault reported success")
	}
	if calls.Load() != 1 {
		t.Fatalf("made %d calls for a permanent fault, want 1", calls.Load())
	}
}
