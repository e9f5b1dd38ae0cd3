package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// The derived hedge delay: hedgeEWMAFactor times the pool's latency
// EWMA — hedge once the primary attempt has been in flight twice as long
// as a typical call — clamped to [hedgeMinDelay, hedgeMaxDelay]. Before
// the pool has any latency signal the delay is hedgeMaxDelay, so a cold
// pool hedges only against a genuinely stuck attempt.
const (
	hedgeEWMAFactor = 2
	hedgeMinDelay   = 20 * time.Millisecond
	hedgeMaxDelay   = 2 * time.Second
)

// HedgePolicy turns on hedging in Pool.Do. Its zero value derives the
// hedge delay from the pool's latency EWMA.
type HedgePolicy struct {
	// Delay fixes the hedge delay; 0 derives it from the pool's EWMA of
	// successful call latency.
	Delay time.Duration
}

// HedgeDelay resolves the delay before a backup attempt launches: the
// fixed Delay when set, otherwise the derived delay above.
func (hp *HedgePolicy) HedgeDelay(ewma time.Duration) time.Duration {
	if hp != nil && hp.Delay > 0 {
		return hp.Delay
	}
	if ewma <= 0 {
		return hedgeMaxDelay
	}
	return min(max(ewma*hedgeEWMAFactor, hedgeMinDelay), hedgeMaxDelay)
}

// HedgeStats accumulates hedge outcomes for one logical scope (a
// workflow step, a request). Attach it with WithHedgeStats; a hedged
// Pool.Do increments it when present.
type HedgeStats struct {
	// Launched counts backup attempts started.
	Launched atomic.Int64
	// Wins counts calls the backup attempt won.
	Wins atomic.Int64
}

type hedgeStatsKey struct{}

// WithHedgeStats attaches a HedgeStats collector to ctx so callers can
// see per-scope hedge activity without threading a return value through
// every layer. A nil hs returns ctx unchanged.
func WithHedgeStats(ctx context.Context, hs *HedgeStats) context.Context {
	if hs == nil {
		return ctx
	}
	return context.WithValue(ctx, hedgeStatsKey{}, hs)
}

// HedgeStatsFrom returns the collector attached by WithHedgeStats.
func HedgeStatsFrom(ctx context.Context) (*HedgeStats, bool) {
	hs, ok := ctx.Value(hedgeStatsKey{}).(*HedgeStats)
	return hs, ok
}

// observeLatency feeds one successful call's wall time into the pool's
// latency EWMA (factor 1/4: responsive but not jumpy — the same
// smoothing the admission layer uses for its service-time estimate).
func (p *Pool) observeLatency(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		old := p.latEWMAns.Load()
		next := int64(d)
		if old > 0 {
			next = (3*old + int64(d)) / 4
		}
		if p.latEWMAns.CompareAndSwap(old, next) {
			return
		}
	}
}

// LatencyEWMA returns the pool's smoothed successful-call latency (zero
// until the first success).
func (p *Pool) LatencyEWMA() time.Duration {
	return time.Duration(p.latEWMAns.Load())
}

// raceResult is one attempt's outcome inside a hedged race.
type raceResult struct {
	ep  string
	err error
	dur time.Duration
}

// hedgedRace runs one hedged attempt of Pool.Do: the primary attempt
// immediately and, if no answer arrives within the hedge delay
// (HedgeDelay over the pool's latency EWMA), one backup attempt on a
// different healthy endpoint. The first success wins and the loser's
// context is cancelled. Every launched attempt is Recorded and awaited
// before return, so no attempt goroutine outlives the call; a cancelled
// loser records a breaker-neutral outcome — losing a race is not
// evidence of endpoint failure.
func (p *Pool) hedgedRace(ctx context.Context, hp *HedgePolicy, primary string, fn func(ctx context.Context, endpoint string) error) (string, error) {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan raceResult, 2)
	var wg sync.WaitGroup
	launch := func(ep string) {
		wg.Add(1)
		go func() {
			began := time.Now()
			err := fn(raceCtx, ep)
			results <- raceResult{ep: ep, err: err, dur: time.Since(began)}
			wg.Done()
		}()
	}
	launch(primary)
	launched := 1

	timer := time.NewTimer(hp.HedgeDelay(p.LatencyEWMA()))
	defer timer.Stop()

	hs, _ := HedgeStatsFrom(ctx)
	var winEp string
	var raceErr error
	settled := 0
	for settled < launched {
		select {
		case r := <-results:
			settled++
			p.Record(r.ep, r.err)
			if r.err == nil {
				if winEp == "" {
					winEp = r.ep
					p.observeLatency(r.dur)
					if launched > 1 && r.ep != primary {
						p.observer.Counter("resilience_hedge_wins_total").Inc()
						if hs != nil {
							hs.Wins.Add(1)
						}
						resLog.Debug(ctx, "hedge_win", "endpoint", r.ep, "primary", primary)
					}
					cancel() // the loser's attempt is moot; reel it in
				}
			} else if winEp == "" {
				raceErr = r.err
			}
		case <-timer.C:
			if winEp != "" || launched > 1 {
				continue
			}
			backup, err := p.Pick(primary)
			if err != nil {
				continue // no second healthy endpoint; ride the primary
			}
			if backup == primary {
				// Pick only returns a skipped endpoint when it is the lone
				// healthy one; answer the pick neutrally (it may hold a
				// half-open probe slot) and skip the hedge.
				p.Record(backup, context.Canceled)
				continue
			}
			p.observer.Counter("resilience_hedges_total").Inc()
			if hs != nil {
				hs.Launched.Add(1)
			}
			launch(backup)
			launched++
		}
	}
	wg.Wait()
	if winEp != "" {
		return winEp, nil
	}
	return primary, raceErr
}
