package admission

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/soap"
)

// slowEchoEndpoint returns an admission-wrapped test server whose echo
// handler sleeps d (or until the handler context dies) and reports the
// highest concurrency it observed.
func slowEchoEndpoint(t *testing.T, c *Controller, d time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var inHandler, peak atomic.Int64
	ep := soap.NewEndpoint("Echo")
	ep.Handle("echo", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		n := inHandler.Add(1)
		defer inHandler.Add(-1)
		for {
			if old := peak.Load(); n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return map[string]string{"x": parts["x"]}, nil
	})
	srv := httptest.NewServer(c.Wrap(ep))
	t.Cleanup(srv.Close)
	return srv, &peak
}

func TestFloodNeverExceedsInFlightLimit(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewController(Config{MaxInFlight: 4, MaxQueue: 4, Observer: reg})
	srv, peak := slowEchoEndpoint(t, c, 20*time.Millisecond)

	const flood = 40 // 10x the in-flight limit
	var ok, busyCount, other atomic.Int64
	var wg sync.WaitGroup
	client := soap.NewClient()
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.CallContext(context.Background(), srv.URL, "echo", map[string]string{"x": "v"})
			var f *soap.Fault
			switch {
			case err == nil:
				ok.Add(1)
			case errors.As(err, &f) && f.Code == resilience.BusyFaultCode:
				busyCount.Add(1)
				if f.Retry <= 0 {
					t.Errorf("ServerBusy fault carries no Retry-After hint: %+v", f)
				}
			default:
				other.Add(1)
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()

	if got := peak.Load(); got > 4 {
		t.Errorf("handler concurrency peaked at %d, limit is 4", got)
	}
	if g := reg.Gauge("admission_inflight_peak").Value(); g > 4 {
		t.Errorf("admission_inflight_peak = %d, want <= 4", g)
	}
	if busyCount.Load() == 0 {
		t.Error("a 10x flood shed nothing; admission control is not engaging")
	}
	// Limit + queue admit 8 of the first wave; everything admitted must
	// succeed and the books must balance.
	if ok.Load() < 8 {
		t.Errorf("only %d requests succeeded, want >= 8 (inflight+queue)", ok.Load())
	}
	if total := ok.Load() + busyCount.Load() + other.Load(); total != flood {
		t.Errorf("accounted for %d of %d requests", total, flood)
	}
	if c := reg.Counter("admission_shed_total", "reason=queue full").Value(); c == 0 {
		t.Error("no queue-full sheds counted")
	}
}

func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	c := NewController(Config{MaxInFlight: 1, MaxQueue: 2, Observer: obs.NewRegistry()})
	srv, _ := slowEchoEndpoint(t, c, 30*time.Millisecond)
	client := soap.NewClient()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.CallContext(context.Background(), srv.URL, "echo", nil)
		}(i)
		time.Sleep(5 * time.Millisecond) // deterministic arrival order
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d should have been queued and served: %v", i, err)
		}
	}
}

func TestDeadlineExpiredOnArrival(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewController(Config{MaxInFlight: 4, Observer: reg})
	srv, _ := slowEchoEndpoint(t, c, time.Millisecond)

	req, err := http.NewRequest(http.MethodPost, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(soap.DeadlineHeaderName, soap.FormatDeadline(time.Now().Add(-time.Second)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired-on-arrival request got HTTP %d, want 503", resp.StatusCode)
	}
	if got := reg.Counter("admission_deadline_expired_total", "at=arrival").Value(); got != 1 {
		t.Errorf("admission_deadline_expired_total{at=arrival} = %d, want 1", got)
	}
}

func TestQueuedDeadlineShedsImmediately(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewController(Config{MaxInFlight: 1, MaxQueue: 4, Observer: reg})
	// Seed the service-time estimate so the controller can predict that a
	// 5ms deadline cannot survive a ~100ms wait.
	c.recordServiceTime(100 * time.Millisecond)
	srv, _ := slowEchoEndpoint(t, c, 80*time.Millisecond)

	client := soap.NewClient()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = client.CallContext(context.Background(), srv.URL, "echo", nil) // occupies the slot
	}()
	time.Sleep(10 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := client.CallContext(ctx, srv.URL, "echo", nil)
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != resilience.BusyFaultCode {
		t.Fatalf("doomed-deadline request should shed as ServerBusy, got %v", err)
	}
	if got := reg.Counter("admission_shed_total", "reason=deadline before service").Value(); got != 1 {
		t.Errorf("deadline-unmeetable sheds = %d, want 1", got)
	}
	<-done
}

func TestDeadlinePropagatesToHandler(t *testing.T) {
	c := NewController(Config{Observer: obs.NewRegistry()})
	var gotDeadline atomic.Bool
	ep := soap.NewEndpoint("Clock")
	ep.Handle("check", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		_, ok := ctx.Deadline()
		gotDeadline.Store(ok)
		return map[string]string{}, nil
	})
	srv := httptest.NewServer(c.Wrap(ep))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := soap.NewClient().CallContext(ctx, srv.URL, "check", nil); err != nil {
		t.Fatal(err)
	}
	if !gotDeadline.Load() {
		t.Error("caller deadline did not reach the handler context")
	}
}

func TestDrainLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewController(Config{MaxInFlight: 1, MaxQueue: 2, Observer: reg})
	srv, _ := slowEchoEndpoint(t, c, 60*time.Millisecond)
	client := soap.NewClient()

	if got := c.HealthStatus(); got != "ok" {
		t.Fatalf("serving controller reports %q, want ok", got)
	}

	// One in-flight request and one queued waiter, then drain.
	inflightDone := make(chan error, 1)
	queuedDone := make(chan error, 1)
	go func() {
		_, err := client.CallContext(context.Background(), srv.URL, "echo", map[string]string{"x": "inflight"})
		inflightDone <- err
	}()
	time.Sleep(15 * time.Millisecond)
	go func() {
		_, err := client.CallContext(context.Background(), srv.URL, "echo", map[string]string{"x": "queued"})
		queuedDone <- err
	}()
	time.Sleep(15 * time.Millisecond)

	c.BeginDrain()
	if got := c.HealthStatus(); got != "draining" {
		t.Errorf("draining controller reports %q", got)
	}
	// The queued waiter is woken and shed; new requests are rejected.
	if err := <-queuedDone; err == nil {
		t.Error("queued waiter should have been shed by the drain")
	}
	if _, err := client.CallContext(context.Background(), srv.URL, "echo", nil); err == nil {
		t.Error("post-drain request should be rejected")
	} else if cls := resilience.ClassifyErr(err); cls != resilience.Retryable {
		t.Errorf("drain rejection classifies as %v, want Retryable so pools fail over", cls)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain did not complete within grace: %v", err)
	}
	// The in-flight request finished normally despite the drain.
	if err := <-inflightDone; err != nil {
		t.Errorf("in-flight request failed during drain: %v", err)
	}
	if got := reg.Counter("admission_drained_total").Value(); got != 1 {
		t.Errorf("admission_drained_total = %d, want 1", got)
	}
	c.Stop()
	if got := c.HealthStatus(); got != "stopped" {
		t.Errorf("stopped controller reports %q", got)
	}
}

func TestDrainGraceExpires(t *testing.T) {
	c := NewController(Config{MaxInFlight: 1, Observer: obs.NewRegistry()})
	srv, _ := slowEchoEndpoint(t, c, 200*time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = soap.NewClient().CallContext(context.Background(), srv.URL, "echo", nil)
	}()
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain against a stuck request returned %v, want deadline exceeded", err)
	}
	<-done
}

// TestRetryAfterHonored closes the client<->server loop: a single-slot
// server sheds a concurrent call with a Retry-After hint, and a pool call
// with a retry policy lands the retry after the hinted delay and succeeds
// — the flood path dmexp's remote executor relies on (its scheduler
// retries through the same resilience.Policy.Do).
func TestRetryAfterHonored(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewController(Config{MaxInFlight: 1, MaxQueue: -1, Observer: reg})
	srv, _ := slowEchoEndpoint(t, c, 40*time.Millisecond)

	retries := obs.Default.Counter("resilience_retries_total")
	retriesBefore := retries.Value()
	pool := resilience.NewPool([]string{srv.URL})
	client := soap.NewClient()
	blocker := make(chan struct{})
	go func() {
		defer close(blocker)
		_, _ = client.CallContext(context.Background(), srv.URL, "echo", nil)
	}()
	time.Sleep(10 * time.Millisecond)
	var shed error
	var shedAt time.Time
	var gap time.Duration // from the first shed to the next attempt
	_, err := pool.Do(context.Background(), &resilience.Policy{MaxAttempts: 10, BackoffBase: time.Millisecond}, nil,
		func(ctx context.Context, ep string) error {
			if shed != nil && gap == 0 {
				gap = time.Since(shedAt)
			}
			_, err := client.CallContext(ctx, ep, "echo", nil)
			if err != nil && shed == nil {
				shed, shedAt = err, time.Now()
			}
			return err
		})
	if err != nil {
		t.Fatalf("retrying pool call should outlast the busy window: %v", err)
	}
	<-blocker
	if got := retries.Value() - retriesBefore; got == 0 {
		t.Error("no pool retries counted; the busy fault was not retried")
	}
	if hint := resilience.RetryAfter(shed); hint <= 0 || gap < hint {
		t.Errorf("retried %v after a shed fault (%v) hinting %v", gap, shed, hint)
	}
	if got := reg.Counter("admission_shed_total", "reason=queue full").Value(); got == 0 {
		t.Error("server shed nothing; the test raced")
	}
}

// TestDefaultRetryAfterBeforeService: before any request has completed
// there is no service time to estimate from, so a rejection hints
// defaultRetryAfter; after one has, the hint follows the service time.
func TestDefaultRetryAfterBeforeService(t *testing.T) {
	c := NewController(Config{MaxInFlight: 1, MaxQueue: -1, Observer: obs.NewRegistry()})
	done, rej := c.admit(context.Background())
	if rej != nil {
		t.Fatalf("first request rejected: %v", rej.reason)
	}
	if _, rej := c.admit(context.Background()); rej == nil || rej.retryAfter != defaultRetryAfter {
		t.Fatalf("rejection before any service time = %+v, want a %v hint", rej, defaultRetryAfter)
	}
	time.Sleep(2 * time.Millisecond)
	done()
	done, rej = c.admit(context.Background())
	if rej != nil {
		t.Fatalf("request after a freed slot rejected: %v", rej.reason)
	}
	defer done()
	if _, rej := c.admit(context.Background()); rej == nil || rej.retryAfter == defaultRetryAfter || rej.retryAfter <= 0 {
		t.Fatalf("rejection after one served request = %+v, want a hint from its service time", rej)
	}
}

// TestDrainLeaksNoGoroutines is the leak gate verify.sh relies on: a
// flood followed by a full drain must return the process to its
// pre-flood goroutine count.
func TestDrainLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	c := NewController(Config{MaxInFlight: 2, MaxQueue: 2, Observer: obs.NewRegistry()})
	srv, _ := slowEchoEndpoint(t, c, 10*time.Millisecond)
	client := soap.NewClient()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = client.CallContext(context.Background(), srv.URL, "echo", nil)
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	srv.Close()

	// Idle HTTP connections and test plumbing wind down asynchronously;
	// poll instead of sleeping a fixed pessimistic amount.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: before=%d after=%d\n%s", before, after, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestInFlightPeakHoldsUnderChurn drives tight admit/release loops from
// many goroutines at MaxInFlight 1: a request is off the in-flight books
// before its slot is handed on, so the gauge never reads limit + 1.
func TestInFlightPeakHoldsUnderChurn(t *testing.T) {
	reg := obs.NewRegistry()
	const workers, rounds = 8, 2000
	c := NewController(Config{MaxInFlight: 1, MaxQueue: workers, Observer: reg})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				release, rej := c.admit(context.Background())
				if rej != nil {
					t.Errorf("admit rejected: %s", rej.reason)
					return
				}
				release()
			}
		}()
	}
	wg.Wait()
	if g := reg.Gauge("admission_inflight_peak").Value(); g > 1 {
		t.Errorf("admission_inflight_peak = %d, want <= 1", g)
	}
	if n := reg.Gauge("admission_inflight").Value(); n != 0 {
		t.Errorf("%d requests still in flight after every release", n)
	}
}
