package experiment

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/services"
	"repro/internal/soap"
	"repro/internal/workflow"
)

// hostClassifier mounts the paper's Classifier service on a test server
// and returns its SOAP endpoint URL.
func hostClassifier(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	paths := services.Host(mux, srv.URL, services.NewClassifierService(harness.NewCachedBackend(16)))
	return srv.URL + paths["Classifier"]
}

// TestRemoteExecutorViaRegistry runs a spec against classifier services
// hosted on in-test soap servers, discovered through the UDDI-style
// registry — the full remote dispatch loop of the experiment engine.
func TestRemoteExecutorViaRegistry(t *testing.T) {
	ep1 := hostClassifier(t)
	ep2 := hostClassifier(t)

	reg := registry.New()
	regSrv := httptest.NewServer(reg.Handler())
	t.Cleanup(regSrv.Close)
	for i, ep := range []string{ep1, ep2} {
		err := reg.Publish(registry.Entry{
			Name:     "Classifier-" + string(rune('A'+i)),
			Category: "classifier",
			Endpoint: ep,
			WSDLURL:  ep,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	remote, err := DiscoverRemote(regSrv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(remote.Endpoints()); got != 2 {
		t.Fatalf("discovered %d endpoints, want 2", got)
	}

	spec := &Spec{
		Name:  "remote-sweep",
		Folds: 0, // remote evaluation is resubstitution; folds are unused
		Datasets: []DatasetSpec{
			{Name: "breast-cancer", Builtin: "breast-cancer"},
			{Name: "weather", Builtin: "weather"},
		},
		Algorithms: []AlgorithmSpec{
			{Name: "J48", Grid: map[string][]string{"confidenceFactor": {"0.1", "0.25"}}},
			{Name: "OneR"},
			{Name: "ZeroR"},
		},
	}
	jobs, data := mustExpand(t, spec)
	if len(jobs) != 8 {
		t.Fatalf("%d jobs, want 8", len(jobs))
	}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 4}, jobs, data, remote,
		Retry{JobTimeout: 30 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Status != StatusOK {
			t.Fatalf("job %s: %s (%s)", res.Job.ID, res.Status, res.Err)
		}
		if res.Metrics.Accuracy <= 0 || res.Metrics.Accuracy > 1 {
			t.Fatalf("job %s: accuracy %v out of range", res.Job.ID, res.Metrics.Accuracy)
		}
	}
	// J48 on its training data beats ZeroR's majority-class baseline.
	var j48, zeror float64
	for _, g := range Aggregate(results) {
		switch g.Algorithm {
		case "J48":
			j48 = g.MeanAcc
		case "ZeroR":
			zeror = g.MeanAcc
		}
	}
	if j48 <= zeror {
		t.Fatalf("J48 mean accuracy %v not above ZeroR %v", j48, zeror)
	}
}

// A bad request (unknown classifier -> soap:Client fault) must fail
// without retries, while a dead endpoint (transport error) must be
// recognised as transient.
func TestRemoteErrorClassification(t *testing.T) {
	ep := hostClassifier(t)
	remote, err := NewRemote(ep)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Name:       "bad-remote",
		Datasets:   []DatasetSpec{{Name: "weather", Builtin: "weather"}},
		Algorithms: []AlgorithmSpec{{Name: "NoSuchClassifier"}},
	}
	jobs, data := mustExpand(t, spec)
	r := Retry{MaxRetries: 4, BackoffBase: time.Millisecond}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 1}, jobs, data, remote, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusFailed || results[0].Attempts != 1 {
		t.Fatalf("soap:Client fault: status %s after %d attempts, want failed after 1",
			results[0].Status, results[0].Attempts)
	}

	// A connection-refused endpoint is transient: all retries are burned.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	remote2, err := NewRemote(deadURL)
	if err != nil {
		t.Fatal(err)
	}
	spec.Algorithms = []AlgorithmSpec{{Name: "ZeroR"}}
	jobs, data = mustExpand(t, spec)
	r = Retry{MaxRetries: 2, BackoffBase: time.Millisecond}
	results, err = Run(context.Background(), &workflow.Engine{Workers: 1}, jobs, data, remote2, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusFailed {
		t.Fatalf("dead endpoint: status %s, want failed", results[0].Status)
	}
	if got := results[0].Attempts; got != 3 {
		t.Fatalf("dead endpoint: %d attempts, want 3 (transient error retried)", got)
	}
}

// CallContext must abort an in-flight SOAP call when the context is
// cancelled — the API the experiment and workflow engines rely on.
func TestRemoteCancellation(t *testing.T) {
	blocked := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-blocked
	}))
	defer slow.Close()
	defer close(blocked)
	remote, err := NewRemote(slow.URL)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Name:       "hang",
		Datasets:   []DatasetSpec{{Name: "weather", Builtin: "weather"}},
		Algorithms: []AlgorithmSpec{{Name: "ZeroR"}},
	}
	jobs, data := mustExpand(t, spec)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, err := Run(ctx, &workflow.Engine{Workers: 1}, jobs, data, remote, Retry{}, nil)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %v, want prompt return", elapsed)
	}
	if len(results) != 1 || results[0].Status != StatusFailed {
		t.Fatalf("want one failed result, got %+v", results)
	}
}

// TestRetryRemoteAgainstBusyServer: a Remote job against a server that
// sheds every call makes exactly MaxRetries+1 calls, because the endpoint
// pool's Do is the job's one retry loop.
func TestRetryRemoteAgainstBusyServer(t *testing.T) {
	var calls atomic.Int64
	ep := soap.NewEndpoint("Classifier")
	ep.Handle("classifyInstance", func(context.Context, map[string]string) (map[string]string, error) {
		calls.Add(1)
		return nil, &soap.Fault{Code: resilience.BusyFaultCode, String: "shed"}
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()
	remote, err := NewRemote(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	remote.Observer = obs.NewRegistry()
	jobs, data := mustExpand(t, &Spec{
		Name:       "busy",
		Datasets:   []DatasetSpec{{Name: "weather", Builtin: "weather"}},
		Algorithms: []AlgorithmSpec{{Name: "ZeroR"}},
	})
	r := Retry{MaxRetries: 3, BackoffBase: time.Millisecond}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 1}, jobs, data, remote, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want MaxRetries+1 = 4", got)
	}
	if results[0].Status != StatusFailed || results[0].Attempts != 4 {
		t.Fatalf("result %+v, want failed after 4 attempts", results[0])
	}
	if got := remote.Observer.Counter("resilience_retries_total").Value(); got != 3 {
		t.Fatalf("resilience_retries_total = %d, want 3", got)
	}
}

// TestRetryRemoteNeverReturnsToFailedEndpoint: with two of three replicas
// always failing, two jobs at a time moving the shared rotation and the
// default breaker, every job's third attempt at the latest reaches the
// healthy replica, because no retry goes back to an endpoint its job
// already failed on.
func TestRetryRemoteNeverReturnsToFailedEndpoint(t *testing.T) {
	var badCalls atomic.Int64
	bad := soap.NewEndpoint("Classifier")
	bad.Handle("classifyInstance", func(context.Context, map[string]string) (map[string]string, error) {
		badCalls.Add(1)
		return nil, &soap.Fault{Code: "soap:Server", String: "replica broken"}
	})
	bad1, bad2 := httptest.NewServer(bad), httptest.NewServer(bad)
	defer bad1.Close()
	defer bad2.Close()
	remote, err := NewRemote(bad1.URL, bad2.URL, hostClassifier(t))
	if err != nil {
		t.Fatal(err)
	}
	remote.Observer = obs.NewRegistry()
	jobs, data := mustExpand(t, &Spec{
		Name:     "two-bad-replicas",
		Datasets: []DatasetSpec{{Name: "weather", Builtin: "weather"}},
		Algorithms: []AlgorithmSpec{
			{Name: "OneR", Grid: map[string][]string{"minBucket": {"1", "2", "3", "4", "5", "6"}}},
			{Name: "ZeroR"},
		},
	})
	r := Retry{MaxRetries: 2, BackoffBase: time.Millisecond}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 2}, jobs, data, remote, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Status != StatusOK || res.Attempts > 3 {
			t.Fatalf("job %s: %s after %d attempts (%s), want ok within 3", res.Job.ID, res.Status, res.Attempts, res.Err)
		}
	}
	if badCalls.Load() == 0 {
		t.Fatal("no call reached a broken replica: the test exercised no retry")
	}
}
