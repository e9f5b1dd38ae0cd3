package workflow

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/registry"
	"repro/internal/resilience"
)

// TestSOAPUnitHedgesTailLatency: with one replica answering slowly
// (injected latency far above the hedge delay) and one healthy, a hedged
// registry-backed SOAPUnit finishes every call at the fast replica's
// speed — whichever endpoint the rotation hands it first — and records
// hedge wins for the calls that started on the slow one.
func TestSOAPUnitHedgesTailLatency(t *testing.T) {
	slowInj := chaos.New(1, chaos.Rule{Latency: 400 * time.Millisecond})
	slowEp := hostClassifierService(t, slowInj)
	fastEp := hostClassifierService(t, nil)

	reg := registry.New()
	regSrv := httptest.NewServer(reg.Handler())
	t.Cleanup(regSrv.Close)
	for _, ep := range []string{slowEp, fastEp} {
		if err := reg.Publish(registry.Entry{
			Name: "Classifier", Category: "classifier", Endpoint: ep, WSDLURL: ep,
		}); err != nil {
			t.Fatal(err)
		}
	}

	u := &SOAPUnit{
		Service:     "Classifier",
		Operation:   "getClassifiers",
		Out:         []string{"classifiers"},
		RegistryURL: regSrv.URL,
		Category:    "classifier",
		Hedge:       &resilience.HedgePolicy{Delay: 25 * time.Millisecond},
	}

	var hs resilience.HedgeStats
	ctx := resilience.WithHedgeStats(context.Background(), &hs)
	const calls = 8
	for i := 0; i < calls; i++ {
		began := time.Now()
		out, err := u.Run(ctx, Values{})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if out["classifiers"] == "" {
			t.Fatalf("call %d: empty classifiers output", i)
		}
		// Unhedged, a slow-primary call would take the full injected
		// 400ms; hedged it must finish at hedge delay + fast latency.
		if elapsed := time.Since(began); elapsed > 300*time.Millisecond {
			t.Fatalf("call %d took %v, hedge did not rescue the tail", i, elapsed)
		}
	}
	// Round-robin hands the slow replica the primary slot about half the
	// time; every one of those calls must have been won by the backup.
	if hs.Wins.Load() == 0 {
		t.Fatalf("no hedge wins over %d calls (launched %d)", calls, hs.Launched.Load())
	}
}
