package soap

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestBareHTTPErrorsMapToFaults covers the non-envelope failure path: a
// proxy page or plain-text error must surface as a typed *Fault so retry
// policies can classify it like a service fault.
func TestBareHTTPErrorsMapToFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/unavailable":
			http.Error(w, "backend draining", http.StatusServiceUnavailable)
		case "/missing":
			http.Error(w, "no such service", http.StatusNotFound)
		default:
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, "this is not XML")
		}
	}))
	defer srv.Close()

	_, err := CallContext(context.Background(), srv.URL+"/unavailable", "op", nil)
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("503 error = %v (%T), want *Fault", err, err)
	}
	if f.Code != "soap:Server" {
		t.Errorf("503 fault code = %q, want soap:Server (retryable)", f.Code)
	}
	if !strings.Contains(f.String, "503") || !strings.Contains(f.Detail, "backend draining") {
		t.Errorf("503 fault = %+v", f)
	}

	_, err = CallContext(context.Background(), srv.URL+"/missing", "op", nil)
	f, ok = err.(*Fault)
	if !ok || f.Code != "soap:Client" {
		t.Fatalf("404 error = %v, want soap:Client fault", err)
	}

	// A 200 with a non-envelope body means the server garbled its reply:
	// it maps to a retryable soap:Server fault, like a truncated response.
	_, err = CallContext(context.Background(), srv.URL+"/garbage", "op", nil)
	f, ok = err.(*Fault)
	if !ok || f.Code != "soap:Server" {
		t.Fatalf("non-envelope 200 error = %v, want soap:Server fault", err)
	}
	if !strings.Contains(f.String, "malformed response envelope") {
		t.Errorf("malformed-envelope fault = %+v", f)
	}
}

func TestWithTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	c := NewClient(WithTimeout(50 * time.Millisecond))
	began := time.Now()
	_, err := c.CallContext(context.Background(), srv.URL, "slow", nil)
	if err == nil {
		t.Fatal("timed-out call succeeded")
	}
	if elapsed := time.Since(began); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s", elapsed)
	}

	// An explicit context deadline wins over WithTimeout.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	c2 := NewClient(WithTimeout(time.Hour))
	if _, err := c2.CallContext(ctx, srv.URL, "slow", nil); err == nil {
		t.Fatal("context deadline ignored")
	}
}

// TestTraceHeaderPropagation proves the client's trace context reaches the
// server handler — via the SOAP header block and the HTTP fallback header.
func TestTraceHeaderPropagation(t *testing.T) {
	var mu sync.Mutex
	var httpHeader string
	ep := NewEndpoint("TraceEcho")
	ep.Handle("whoami", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		tc, _ := obs.TraceFrom(ctx)
		return map[string]string{"trace": tc.TraceID}, nil
	})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		httpHeader = r.Header.Get(obs.TraceHeaderName)
		mu.Unlock()
		ep.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx := obs.ContextWithTrace(context.Background(),
		obs.TraceContext{TraceID: "trace-cafe", SpanID: "span-01"})

	out, err := NewClient().CallContext(ctx, srv.URL, "whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["trace"] != "trace-cafe" {
		t.Errorf("server saw trace %q, want trace-cafe", out["trace"])
	}
	mu.Lock()
	hdr := httpHeader
	mu.Unlock()
	if !strings.HasPrefix(hdr, "trace-cafe-") {
		t.Errorf("%s header = %q, want trace-cafe-<span>", obs.TraceHeaderName, hdr)
	}
}

// TestInstrumentsFollowObserver: the endpoint resolves an operation's
// instruments once, but a registry set after the first call (Observer
// may be assigned after Handle) receives every later call, while the
// client counts every call in obs.Default; an operation the endpoint does
// not serve leaves no per-op entry.
func TestInstrumentsFollowObserver(t *testing.T) {
	ep, srv := newTestEndpoint(t)
	c := NewClient()
	first, second := obs.NewRegistry(), obs.NewRegistry()
	call := func(op string) {
		t.Helper()
		_, _ = c.CallContext(context.Background(), srv.URL, op, map[string]string{"x": "a"})
	}
	clientRequests := obs.Default.Counter("soap_client_requests_total", "op=echo")
	clientBefore := clientRequests.Value()
	ep.Observer = first
	call("echo")
	ep.Observer = second
	call("echo")
	call("echo")
	for _, r := range []struct {
		reg  *obs.Registry
		want int64
	}{{first, 1}, {second, 2}} {
		if got := r.reg.Counter("soap_server_requests_total", "service=Echo", "op=echo").Value(); got != r.want {
			t.Errorf("server requests in registry: %d, want %d", got, r.want)
		}
	}
	if got := clientRequests.Value() - clientBefore; got != 3 {
		t.Errorf("client requests rose by %d, want 3", got)
	}
	call("noSuchOp")
	call("noSuchOp")
	if got := second.Counter("soap_server_requests_total", "service=Echo", "op=noSuchOp").Value(); got != 2 {
		t.Errorf("unknown op counted %d times, want 2", got)
	}
	ep.mu.RLock()
	_, cached := ep.ops["noSuchOp"]
	ep.mu.RUnlock()
	if cached {
		t.Error("an unknown operation got a per-op entry")
	}
}

// TestClientMetrics checks that obs.Default receives the client's
// request counter, latency histogram and fault-class counter.
func TestClientMetrics(t *testing.T) {
	_, srv := newTestEndpoint(t)
	c := NewClient()
	requests, latency := obs.Key("soap_client_requests_total", "op=echo"), obs.Key("soap_client_latency_ms", "op=echo")
	faults := obs.Key("soap_client_faults_total", "class=soap:Server", "op=fail")
	before := obs.Default.Snapshot()

	if _, err := c.CallContext(context.Background(), srv.URL, "echo", map[string]string{"x": "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallContext(context.Background(), srv.URL, "fail", nil); err == nil {
		t.Fatal("fail op succeeded")
	}

	after := obs.Default.Snapshot()
	if got := after.Counters[requests] - before.Counters[requests]; got != 1 {
		t.Errorf("echo requests rose by %d", got)
	}
	if got := after.Histograms[latency].Count - before.Histograms[latency].Count; got != 1 {
		t.Errorf("echo latency samples rose by %d", got)
	}
	if got := after.Counters[faults] - before.Counters[faults]; got != 1 {
		t.Errorf("fail faults rose by %d; snapshot=%v", got, after.Counters)
	}
}

// TestConcurrentServer hammers one endpoint from many goroutines; run with
// -race this doubles as the server's data-race check, and the endpoint's
// metrics must account for every request exactly once.
func TestConcurrentServer(t *testing.T) {
	reg := obs.NewRegistry()
	ep := NewEndpoint("Echo")
	ep.Observer = reg
	ep.Handle("echo", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		return map[string]string{"x": parts["x"] + parts["x"]}, nil
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	const workers, perWorker = 16, 20
	client := NewClient()
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				in := fmt.Sprintf("w%d-%d", w, i)
				out, err := client.CallContext(context.Background(), srv.URL, "echo",
					map[string]string{"x": in})
				if err != nil {
					errs <- err
					return
				}
				if out["x"] != in+in {
					errs <- fmt.Errorf("echo(%q) = %q", in, out["x"])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := int64(workers * perWorker)
	if got := reg.Counter("soap_server_requests_total", "service=Echo", "op=echo").Value(); got != want {
		t.Errorf("server counted %d requests, want %d", got, want)
	}
}

// TestPackageCallContext covers the package-level helper over the
// default client (the deprecated context-free Call shims are gone).
func TestPackageCallContext(t *testing.T) {
	_, srv := newTestEndpoint(t)
	out, err := CallContext(context.Background(), srv.URL, "echo", map[string]string{"x": "a"})
	if err != nil {
		t.Fatal(err)
	}
	if out["x"] != "aa" {
		t.Fatalf("package CallContext returned %v", out)
	}
}

// TestZeroValueClient: the documented contract is that a zero Client
// behaves like NewClient() — including trace propagation.
func TestZeroValueClient(t *testing.T) {
	ep := NewEndpoint("TraceEcho")
	ep.Handle("whoami", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		tc, _ := obs.TraceFrom(ctx)
		return map[string]string{"trace": tc.TraceID}, nil
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	ctx := obs.ContextWithTrace(context.Background(),
		obs.TraceContext{TraceID: "zero-trace", SpanID: "s1"})
	var c Client
	out, err := c.CallContext(ctx, srv.URL, "whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["trace"] != "zero-trace" {
		t.Errorf("zero-value client dropped the trace: server saw %q", out["trace"])
	}
}
