package workflow

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/services"
	"repro/internal/soap"
)

// hostClassifierService mounts the Classifier service, optionally behind
// a chaos injector, and returns its SOAP endpoint.
func hostClassifierService(t *testing.T, inj *chaos.Injector) string {
	t.Helper()
	mux := http.NewServeMux()
	srv := httptest.NewServer(inj.Wrap(mux))
	t.Cleanup(srv.Close)
	paths := services.Host(mux, srv.URL, services.NewClassifierService(harness.NewCachedBackend(4)))
	return srv.URL + paths["Classifier"]
}

// TestSOAPUnitFailsOverViaRegistry: a registry-backed SOAPUnit finishes
// its task on the healthy replica when the first endpoint answers with
// injected faults.
func TestSOAPUnitFailsOverViaRegistry(t *testing.T) {
	inj := chaos.New(1, chaos.Rule{FaultRate: 1})
	inj.Observer = obs.NewRegistry()
	badEp := hostClassifierService(t, inj)
	goodEp := hostClassifierService(t, nil)

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

	u := &SOAPUnit{
		Service:     "Classifier",
		Operation:   "getClassifiers",
		Out:         []string{"classifiers"},
		RegistryURL: regSrv.URL,
		Category:    "classifier",
		Policy:      &resilience.Policy{MaxAttempts: 4, BackoffBase: time.Millisecond},
	}
	g := NewGraph("failover")
	g.MustAdd("list", u)

	e := NewEngine()
	e.Observer = obs.NewRegistry()
	res, err := e.Run(context.Background(), g)
	if err != nil {
		t.Fatalf("workflow failed despite a healthy replica: %v", err)
	}
	out, ok := res.Value("list", "classifiers")
	if !ok || out == "" {
		t.Fatalf("classifiers output = %q, %v", out, ok)
	}
}

// TestSOAPUnitRegistrySpecRoundTrip: registry/category survive the spec
// save/load cycle, so persisted workflows keep their dynamic failover.
func TestSOAPUnitRegistrySpecRoundTrip(t *testing.T) {
	u := &SOAPUnit{
		Service:     "Classifier",
		Operation:   "getClassifiers",
		In:          []string{"x"},
		Out:         []string{"classifiers"},
		RegistryURL: "http://reg.example",
		Category:    "classifier",
	}
	spec := u.Spec()
	unit, err := newUnitOfKind(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := unit.(*SOAPUnit)
	if !ok {
		t.Fatalf("round-trip unit is %T", unit)
	}
	if got.RegistryURL != u.RegistryURL || got.Category != u.Category {
		t.Fatalf("round-trip lost registry config: %+v", got)
	}
	// Registry-only units (no fixed endpoint) are valid.
	spec.Config["endpoint"] = ""
	if _, err := newUnitOfKind(spec); err != nil {
		t.Fatalf("registry-only soap unit rejected: %v", err)
	}
	// But a unit with neither endpoint nor registry is not.
	spec.Config["registry"] = ""
	if _, err := newUnitOfKind(spec); err == nil {
		t.Fatal("endpoint-less, registry-less soap unit accepted")
	}
}

// deadEndpoint returns the URL of a server that has shut down: every
// call to it is refused.
func deadEndpoint(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL + "/services/Classifier"
	srv.Close()
	return url
}

// publishAll lists each name → endpoint pair in a fresh registry and
// returns its URL. An inquiry returns entries sorted by name, so the
// pool tries them in the order given when the names sort that way.
func publishAll(t *testing.T, entries ...registry.Entry) string {
	t.Helper()
	reg := registry.New()
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	for _, e := range entries {
		e.Category = "classifier"
		if err := reg.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	return srv.URL
}

// retriesSince returns how many retries resilience.Pool.Do has counted
// in obs.Default since before was read.
func retriesSince(before int64) int64 {
	return obs.Default.Counter("resilience_retries_total").Value() - before
}

// TestFaultToleranceMigratesToAnotherEndpoint reproduces §3's
// fault-tolerance requirement: a task whose resource has died completes
// by moving the job to another one. The unit's seed endpoint is dead and
// the registry still lists it first; the pool's retry moves the call to
// the live replica, once.
func TestFaultToleranceMigratesToAnotherEndpoint(t *testing.T) {
	dead := deadEndpoint(t)
	regURL := publishAll(t,
		registry.Entry{Name: "Classifier", Endpoint: dead},
		registry.Entry{Name: "Classifier-backup", Endpoint: hostClassifierService(t, nil)})
	g := NewGraph("ft")
	g.MustAdd("job", &SOAPUnit{
		Endpoint: dead, Service: "Classifier", Operation: "getClassifiers",
		Out: []string{"classifiers"}, RegistryURL: regURL, Category: "classifier",
		Policy: &resilience.Policy{MaxAttempts: 3, BackoffBase: time.Millisecond},
	})
	before := obs.Default.Counter("resilience_retries_total").Value()
	res, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Value("job", "classifiers"); !strings.Contains(got, "J48") {
		t.Fatalf("migrated job returned %q", got)
	}
	if got := retriesSince(before); got != 1 {
		t.Fatalf("resilience_retries_total rose by %d, want 1 (dead seed, then the live replica)", got)
	}
}

// TestFaultToleranceExhaustsEndpoints: with every listed replica dead
// the task fails after the policy's attempts, and so does the run.
func TestFaultToleranceExhaustsEndpoints(t *testing.T) {
	dead := deadEndpoint(t)
	regURL := publishAll(t,
		registry.Entry{Name: "Classifier", Endpoint: dead},
		registry.Entry{Name: "Classifier-backup", Endpoint: deadEndpoint(t)})
	g := NewGraph("ft2")
	g.MustAdd("job", &SOAPUnit{
		Endpoint: dead, Service: "Classifier", Operation: "getClassifiers",
		Out: []string{"classifiers"}, RegistryURL: regURL, Category: "classifier",
		Policy: &resilience.Policy{MaxAttempts: 3, BackoffBase: time.Millisecond},
	})
	before := obs.Default.Counter("resilience_retries_total").Value()
	if _, err := NewEngine().Run(context.Background(), g); err == nil {
		t.Fatal("all-failing task succeeded")
	}
	if got := retriesSince(before); got != 2 {
		t.Fatalf("resilience_retries_total rose by %d, want 2 (three attempts)", got)
	}
}

// TestRetryOnceAgainstBusyServer: a registry-backed unit against a
// server that sheds every call makes exactly its policy's MaxAttempts
// calls. The unit's pool is the only retry layer: the engine runs the
// unit once.
func TestRetryOnceAgainstBusyServer(t *testing.T) {
	var calls atomic.Int64
	ep := soap.NewEndpoint("Classifier")
	ep.Handle("getClassifiers", func(context.Context, map[string]string) (map[string]string, error) {
		calls.Add(1)
		return nil, &soap.Fault{Code: resilience.BusyFaultCode, String: "shed"}
	})
	srv := httptest.NewServer(ep)
	t.Cleanup(srv.Close)
	g := NewGraph("busy")
	g.MustAdd("list", &SOAPUnit{
		Service: "Classifier", Operation: "getClassifiers", Out: []string{"classifiers"},
		RegistryURL: publishAll(t, registry.Entry{Name: "Classifier", Endpoint: srv.URL}),
		Policy:      &resilience.Policy{MaxAttempts: 4, BackoffBase: time.Millisecond},
	})
	j, err := OpenJournal(filepath.Join(t.TempDir(), "busy.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := NewEngine().Resume(context.Background(), g, j); err == nil {
		t.Fatal("task succeeded against a server that sheds every call")
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want the policy's 4", got)
	}
	if recs := j.Records(); len(recs) != 1 || recs[0].Attempts != 4 {
		t.Fatalf("journal = %+v, want one record of 4 attempts", recs)
	}
}
