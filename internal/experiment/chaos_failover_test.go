package experiment

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/services"
	"repro/internal/workflow"
)

// breakerCfg is shorthand for a hair-trigger breaker in tests.
func breakerCfg(threshold int) resilience.BreakerConfig {
	return resilience.BreakerConfig{FailureThreshold: threshold}
}

// hostChaoticClassifier mounts the Classifier service behind a chaos
// injector, so every SOAP call through it misbehaves per the rules.
func hostChaoticClassifier(t *testing.T, rules ...chaos.Rule) string {
	t.Helper()
	mux := http.NewServeMux()
	inj := chaos.New(1, rules...)
	srv := httptest.NewServer(inj.Wrap(mux))
	t.Cleanup(srv.Close)
	paths := services.Host(mux, srv.URL, services.NewClassifierService(harness.NewCachedBackend(16)))
	return srv.URL + paths["Classifier"]
}

// TestBatchSurvivesChaoticEndpoint is the tentpole's end-to-end proof for
// the batch engine: two replicas of the Classifier service are published
// under the same name, one of them answering every call with an injected
// soap:Server fault. Every job must still complete — routed to the
// healthy replica after the chaotic one trips its breaker — and the
// failover must be visible in the metrics.
func TestBatchSurvivesChaoticEndpoint(t *testing.T) {
	badEp := hostChaoticClassifier(t, chaos.Rule{FaultRate: 1})
	goodEp := hostClassifier(t)

	reg := registry.New()
	regSrv := httptest.NewServer(reg.Handler())
	t.Cleanup(regSrv.Close)
	for _, ep := range []string{badEp, goodEp} {
		if err := reg.Publish(registry.Entry{
			Name: "Classifier", Category: "classifier", Endpoint: ep, WSDLURL: ep,
		}); err != nil {
			t.Fatal(err)
		}
	}

	remote, err := DiscoverRemote(regSrv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Breaker must be set before anything touches the lazily built pool
	// (Endpoints() included).
	remote.Breaker = breakerCfg(1)
	before := obs.Default.Snapshot().Counters
	rose := func(name, ep string) int64 {
		key := obs.Key(name, "endpoint="+ep)
		return obs.Default.Snapshot().Counters[key] - before[key]
	}
	if got := len(remote.Endpoints()); got != 2 {
		t.Fatalf("discovered %d endpoints, want 2 (same name, two hosts)", got)
	}

	spec := &Spec{
		Name: "chaos-batch",
		Datasets: []DatasetSpec{
			{Name: "weather", Builtin: "weather"},
			{Name: "breast-cancer", Builtin: "breast-cancer"},
		},
		Algorithms: []AlgorithmSpec{{Name: "ZeroR"}, {Name: "OneR"}},
	}
	jobs, data := mustExpand(t, spec)
	r := Retry{MaxRetries: 3, BackoffBase: time.Millisecond, JobTimeout: 30 * time.Second}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 2}, jobs, data, remote, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Status != StatusOK {
			t.Fatalf("job %s failed despite a healthy replica: %s", res.Job.ID, res.Err)
		}
	}
	if got := rose("resilience_breaker_opens_total", badEp); got < 1 {
		t.Fatalf("chaotic endpoint's breaker never opened (opens=%d)", got)
	}
	if got := rose("resilience_endpoint_ejections_total", badEp); got < 1 {
		t.Fatalf("chaotic endpoint was never ejected (ejections=%d)", got)
	}
	if got := rose("resilience_breaker_opens_total", goodEp); got != 0 {
		t.Fatalf("healthy endpoint's breaker opened %d times", got)
	}
}

// TestBatchRoutesAroundTruncation exercises the garbled-response path:
// truncated envelopes classify as retryable server failures and the jobs
// move to the healthy replica.
func TestBatchRoutesAroundTruncation(t *testing.T) {
	badEp := hostChaoticClassifier(t, chaos.Rule{TruncateRate: 1})
	goodEp := hostClassifier(t)

	remote, err := NewRemote(badEp, goodEp)
	if err != nil {
		t.Fatal(err)
	}
	remote.Breaker = breakerCfg(1)

	spec := &Spec{
		Name:       "truncate-batch",
		Datasets:   []DatasetSpec{{Name: "weather", Builtin: "weather"}},
		Algorithms: []AlgorithmSpec{{Name: "ZeroR"}, {Name: "OneR"}},
	}
	jobs, data := mustExpand(t, spec)
	r := Retry{MaxRetries: 2, BackoffBase: time.Millisecond}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 1}, jobs, data, remote, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Status != StatusOK {
			t.Fatalf("job %s: %s (%s)", res.Job.ID, res.Status, res.Err)
		}
	}
}

// TestBatchReportsWhenAllEndpointsDown: with every replica chaotic the
// batch must fail cleanly (transient errors, retries burned) rather than
// hang or panic.
func TestBatchReportsWhenAllEndpointsDown(t *testing.T) {
	badEp := hostChaoticClassifier(t, chaos.Rule{FaultRate: 1})
	remote, err := NewRemote(badEp)
	if err != nil {
		t.Fatal(err)
	}
	remote.Breaker = breakerCfg(1)

	spec := &Spec{
		Name:       "doomed-batch",
		Datasets:   []DatasetSpec{{Name: "weather", Builtin: "weather"}},
		Algorithms: []AlgorithmSpec{{Name: "ZeroR"}},
	}
	jobs, data := mustExpand(t, spec)
	r := Retry{MaxRetries: 2, BackoffBase: time.Millisecond}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 1}, jobs, data, remote, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusFailed {
		t.Fatalf("status = %s, want failed", results[0].Status)
	}
	if results[0].Err == "" || !strings.Contains(results[0].Err, "soap") && !strings.Contains(results[0].Err, "healthy") {
		t.Fatalf("failure reason %q names neither the fault nor the pool", results[0].Err)
	}
}
