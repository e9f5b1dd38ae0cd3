// Package admission is the server-side overload-control layer of the
// toolkit: bounded concurrency, a deadline-aware wait queue, load
// shedding that cooperates with the client resilience layer, and a
// serving → draining → stopped lifecycle for graceful shutdown.
//
// The paper's FAEHIM services sit behind Apache Axis on Tomcat, whose
// request-processing pool shields the WEKA workers from overload; a bare
// soap.Endpoint on net/http accepts unbounded concurrent requests and
// dies mid-request on shutdown. This package restores the container's
// guarantees: at most MaxInFlight requests execute at once, at most
// MaxQueue more wait (each bounded by its caller's propagated
// X-DM-Deadline), and everything beyond that is rejected immediately
// with a retryable ServerBusy fault carrying a Retry-After hint that
// resilience.Policy honours in its backoff. Shedding is deliberate and
// cheap — a rejected request costs no handler work — so a flooded
// server keeps serving at its configured capacity instead of collapsing,
// and the client's retry/breaker layer spreads the excess over time and
// replicas.
package admission

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/soap"
)

// state is the controller's position in the serving → draining →
// stopped lifecycle.
type state int32

const (
	// stateServing admits requests up to the configured bounds.
	stateServing state = iota
	// stateDraining rejects new work while in-flight requests finish.
	stateDraining
	// stateStopped rejects everything; the server is about to close.
	stateStopped
)

// String renders the state for logs, metrics and /healthz.
func (s state) String() string {
	switch s {
	case stateServing:
		return "serving"
	case stateDraining:
		return "draining"
	case stateStopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Config tunes a Controller. The zero value is usable with the defaults
// noted per field.
type Config struct {
	// MaxInFlight bounds concurrently executing requests; <=0 means 64.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot: 0 means
	// 2×MaxInFlight, negative disables queueing (immediate shed at
	// capacity).
	MaxQueue int
	// Observer receives the controller's metrics; nil means obs.Default.
	Observer *obs.Registry
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 64
	}
	return c.MaxInFlight
}

func (c Config) maxQueue() int {
	switch {
	case c.MaxQueue < 0:
		return 0
	case c.MaxQueue == 0:
		return 2 * c.maxInFlight()
	default:
		return c.MaxQueue
	}
}

// defaultRetryAfter is the Retry-After hint before any request has
// completed (no service-time estimate yet).
const defaultRetryAfter = 500 * time.Millisecond

var admLog = obs.L("admission")

// Controller enforces the admission policy for one hosting server. Wrap
// its middleware around the SOAP service mux; drive the lifecycle with
// BeginDrain/Drain/Stop on shutdown.
type Controller struct {
	cfg      Config
	observer *obs.Registry
	sem      chan struct{} // in-flight slots

	queued  atomic.Int64 // waiters (for the bound check and the gauge)
	ewmaNS  atomic.Int64 // exponentially weighted service time estimate
	drainCh chan struct{}

	mu       sync.Mutex
	state    state
	inflight int
	peak     int
	wg       sync.WaitGroup // one count per admitted request
}

// NewController returns a serving controller.
func NewController(cfg Config) *Controller {
	c := &Controller{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.maxInFlight()),
		drainCh: make(chan struct{}),
	}
	c.observer = cfg.Observer
	if c.observer == nil {
		c.observer = obs.Default
	}
	c.observer.Gauge("admission_state").Set(int64(stateServing))
	return c
}

// lifecycle returns the current lifecycle state.
func (c *Controller) lifecycle() state {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// HealthStatus renders the state for /healthz: "ok" while serving, the
// state name otherwise, so health-checking pools eject a draining
// endpoint before it stops answering.
func (c *Controller) HealthStatus() string {
	if s := c.lifecycle(); s != stateServing {
		return s.String()
	}
	return "ok"
}

// rejection describes a request the controller refused.
type rejection struct {
	fault      *soap.Fault
	retryAfter time.Duration
	reason     string
}

// busy builds a retryable ServerBusy rejection with a Retry-After hint.
func busy(reason string, retryAfter time.Duration) *rejection {
	return &rejection{
		fault: &soap.Fault{
			Code:   resilience.BusyFaultCode,
			String: "ServerBusy",
			Detail: "admission: " + reason,
		},
		retryAfter: retryAfter,
		reason:     reason,
	}
}

// draining builds a lifecycle rejection. Unlike ServerBusy it uses its
// own fault code, which the resilience layer classifies as an ordinary
// retryable failure: breakers count it, so client pools eject a
// draining endpoint from the rotation instead of politely waiting for a
// capacity that will never return.
func draining(s state, retryAfter time.Duration) *rejection {
	return &rejection{
		fault: &soap.Fault{
			Code:   "soap:Server.Draining",
			String: "ServerDraining",
			Detail: "admission: host is " + s.String(),
		},
		retryAfter: retryAfter,
		reason:     s.String(),
	}
}

// estimateWait predicts how long a request admitted behind ahead queued
// waiters will wait for a slot, from the service-time EWMA. It backs the
// Retry-After hints and the deadline-unmeetable check.
func (c *Controller) estimateWait(ahead int64) time.Duration {
	ewma := time.Duration(c.ewmaNS.Load())
	if ewma <= 0 {
		return defaultRetryAfter
	}
	waves := (ahead + int64(c.cfg.maxInFlight())) / int64(c.cfg.maxInFlight())
	return ewma * time.Duration(waves)
}

// recordServiceTime folds one completed request's duration into the
// service-time EWMA (factor 1/4: responsive but not jumpy).
func (c *Controller) recordServiceTime(d time.Duration) {
	for {
		old := c.ewmaNS.Load()
		next := int64(d)
		if old > 0 {
			next = old + (int64(d)-old)/4
		}
		if c.ewmaNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// admit acquires an in-flight slot, queueing within the configured
// bounds. It returns a release function on success, or the rejection to
// send. The request context must already carry any propagated deadline.
func (c *Controller) admit(ctx context.Context) (func(), *rejection) {
	if s := c.lifecycle(); s != stateServing {
		return nil, draining(s, c.estimateWait(0))
	}
	select {
	case c.sem <- struct{}{}:
	default:
		rej := c.enqueue(ctx)
		if rej != nil {
			return nil, rej
		}
	}
	// Slot held; register the in-flight request unless a drain won the
	// race between the state check above and slot acquisition.
	c.mu.Lock()
	if c.state != stateServing {
		s := c.state
		c.mu.Unlock()
		<-c.sem
		return nil, draining(s, 0)
	}
	c.inflight++
	if c.inflight > c.peak {
		c.peak = c.inflight
		c.observer.Gauge("admission_inflight_peak").Set(int64(c.peak))
	}
	c.observer.Gauge("admission_inflight").Set(int64(c.inflight))
	c.wg.Add(1)
	c.mu.Unlock()
	c.observer.Counter("admission_admitted_total").Inc()

	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.recordServiceTime(time.Since(start))
			// Off the books before the slot is handed on, so a waiter
			// that takes it never sees inflight at limit + 1.
			c.mu.Lock()
			c.inflight--
			c.observer.Gauge("admission_inflight").Set(int64(c.inflight))
			if c.state == stateDraining {
				c.observer.Counter("admission_drained_total").Inc()
			}
			c.mu.Unlock()
			<-c.sem
			c.wg.Done()
		})
	}, nil
}

// enqueue waits for an in-flight slot within the queue bound and the
// caller's deadline. nil means the slot was acquired.
func (c *Controller) enqueue(ctx context.Context) *rejection {
	maxQueue := int64(c.cfg.maxQueue())
	qn := c.queued.Add(1)
	if qn > maxQueue {
		c.queued.Add(-1)
		return busy("queue full", c.estimateWait(maxQueue))
	}
	c.observer.Gauge("admission_queued").Set(c.queued.Load())
	dequeue := func() {
		c.observer.Gauge("admission_queued").Set(c.queued.Add(-1))
	}
	// Reject straight away when the caller's deadline cannot survive the
	// predicted wait: better an immediate retryable ServerBusy (the
	// client can go elsewhere) than holding a queue slot for a request
	// that will be dead on arrival at its handler.
	if dl, ok := ctx.Deadline(); ok {
		if wait := c.estimateWait(qn - 1); time.Until(dl) < wait {
			dequeue()
			return busy("deadline before service", wait)
		}
	}
	select {
	case c.sem <- struct{}{}:
		dequeue()
		return nil
	case <-ctx.Done():
		dequeue()
		c.observer.Counter("admission_deadline_expired_total", "at=queue").Inc()
		return &rejection{
			fault: &soap.Fault{Code: "soap:Server",
				String: "caller deadline expired while queued",
				Detail: ctx.Err().Error()},
			reason: "expired",
		}
	case <-c.drainCh:
		dequeue()
		return draining(stateDraining, 0)
	}
}

// BeginDrain moves the controller from serving to draining: new requests
// are rejected, queued waiters are woken and shed, in-flight requests
// run to completion. It is idempotent and safe before/after Stop.
func (c *Controller) BeginDrain() {
	c.mu.Lock()
	if c.state != stateServing {
		c.mu.Unlock()
		return
	}
	c.state = stateDraining
	inflight := c.inflight
	close(c.drainCh)
	c.mu.Unlock()
	c.observer.Gauge("admission_state").Set(int64(stateDraining))
	admLog.Info(nil, "drain_begin", "inflight", fmt.Sprint(inflight))
}

// Drain begins the drain (if not already begun) and waits until every
// in-flight request has completed or ctx expires — the shutdown grace
// period. It returns ctx's error when the grace period ends first.
func (c *Controller) Drain(ctx context.Context) error {
	c.BeginDrain()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		admLog.Info(nil, "drain_complete")
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		left := c.inflight
		c.mu.Unlock()
		admLog.Warn(nil, "drain_grace_expired", "inflight", fmt.Sprint(left))
		return ctx.Err()
	}
}

// Stop moves the controller to its terminal state. Requests arriving
// after Stop are rejected like draining ones.
func (c *Controller) Stop() {
	c.BeginDrain()
	c.mu.Lock()
	c.state = stateStopped
	c.mu.Unlock()
	c.observer.Gauge("admission_state").Set(int64(stateStopped))
}

// Wrap returns next behind the admission policy. Only POST requests (the
// SOAP invocations) are gated; GET requests (WSDL documents) pass
// through untouched. A nil *Controller wraps nothing, so wiring can be
// unconditional.
func (c *Controller) Wrap(next http.Handler) http.Handler {
	if c == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		ctx := r.Context()
		if dl, ok := soap.ParseDeadline(r.Header.Get(soap.DeadlineHeaderName)); ok {
			if !time.Now().Before(dl) {
				c.observer.Counter("admission_deadline_expired_total", "at=arrival").Inc()
				c.reject(ctx, w, &rejection{
					fault: &soap.Fault{Code: "soap:Server",
						String: "caller deadline expired before service",
						Detail: "admission: " + soap.DeadlineHeaderName + "=" + r.Header.Get(soap.DeadlineHeaderName)},
					reason: "expired",
				})
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, dl)
			defer cancel()
			r = r.WithContext(ctx)
		}
		release, rej := c.admit(ctx)
		if rej != nil {
			c.reject(ctx, w, rej)
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// reject answers a refused request: HTTP 503 with a SOAP fault envelope
// and, for shed requests, the Retry-After hints.
func (c *Controller) reject(ctx context.Context, w http.ResponseWriter, rej *rejection) {
	c.observer.Counter("admission_shed_total", "reason="+rej.reason).Inc()
	admLog.Warn(ctx, "shed", "reason", rej.reason, "fault", rej.fault.Code,
		"retry_after", rej.retryAfter.String())
	soap.SetRetryAfter(w.Header(), rej.retryAfter)
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write(soap.MarshalFault(rej.fault))
}
