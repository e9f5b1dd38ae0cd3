package soap

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// Handler processes one operation invocation: named string parts in, named
// string parts out. ctx carries cancellation and the recovered obs trace
// context of the calling client. Returning an error produces a SOAP fault.
type Handler func(ctx context.Context, parts map[string]string) (map[string]string, error)

// Endpoint dispatches SOAP envelopes to operation handlers; it implements
// http.Handler and is the Axis-equivalent hosting container for one
// service. Every request is measured: request count, latency histogram and
// fault class land in the endpoint's obs registry under the service and
// operation labels.
type Endpoint struct {
	// ServiceName labels the endpoint in faults, WSDL and metrics.
	ServiceName string
	// Observer receives the endpoint's metrics; nil means obs.Default.
	Observer *obs.Registry

	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewEndpoint returns an empty endpoint for a named service.
func NewEndpoint(serviceName string) *Endpoint {
	return &Endpoint{ServiceName: serviceName, handlers: map[string]Handler{}}
}

// Handle registers an operation handler; it panics on duplicates so wiring
// errors surface at startup.
func (e *Endpoint) Handle(operation string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.handlers[operation]; dup {
		panic("soap: duplicate operation " + operation + " on " + e.ServiceName)
	}
	e.handlers[operation] = h
}

func (e *Endpoint) obsReg() *obs.Registry {
	if e.Observer != nil {
		return e.Observer
	}
	return obs.Default
}

var serverLog = obs.L("soap.server")

// ServeHTTP implements http.Handler.
func (e *Endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "soap endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	msg, err := readEnvelope(r.Body, r.ContentLength)
	if err != nil {
		var tooLarge *errTooLarge
		if errors.As(err, &tooLarge) {
			e.writeFault(r.Context(), w, "", http.StatusRequestEntityTooLarge,
				&Fault{Code: "soap:Client", String: fmt.Sprintf("request envelope %v", tooLarge)})
			return
		}
		e.fault(r.Context(), w, "", &Fault{Code: "soap:Client", String: "malformed envelope", Detail: err.Error()})
		return
	}
	// Recover the caller's trace context: the SOAP header block wins, the
	// HTTP header is the fallback for non-envelope-aware callers.
	ctx := r.Context()
	if tc, ok := obs.ParseTraceHeader(msg.Trace); ok {
		ctx = obs.ContextWithTrace(ctx, tc)
	} else if tc, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeaderName)); ok {
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	// Enforce the caller's propagated deadline: the handler context dies
	// when the caller's does, so abandoned work cancels instead of
	// running to completion for a reader that hung up.
	if dl, ok := ParseDeadline(r.Header.Get(DeadlineHeaderName)); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, dl)
		defer cancel()
	}
	ctx, span := obs.StartSpan(ctx, "soap.server", msg.Operation)
	span.SetAttr("service", e.ServiceName)

	e.mu.RLock()
	h, ok := e.handlers[msg.Operation]
	e.mu.RUnlock()
	if !ok {
		f := &Fault{
			Code:   "soap:Client",
			String: fmt.Sprintf("service %s has no operation %q", e.ServiceName, msg.Operation),
		}
		span.End(f)
		e.observe(msg.Operation, span.DurationMS(), f)
		e.fault(ctx, w, msg.Operation, f)
		return
	}
	out, err := e.safeCall(ctx, msg.Operation, h, msg.Parts)
	span.End(err)
	e.observe(msg.Operation, span.DurationMS(), err)
	if ctx.Err() != nil {
		// The caller's deadline passed (or it hung up) while the handler
		// ran; nobody is waiting for this response.
		e.obsReg().Counter("soap_server_abandoned_total",
			"service="+e.ServiceName, "op="+msg.Operation).Inc()
		serverLog.Warn(ctx, msg.Operation, "service", e.ServiceName,
			"status", "abandoned", "err", fmt.Sprint(ctx.Err()))
		e.fault(ctx, w, msg.Operation, &Fault{Code: "soap:Server",
			String: "caller deadline expired during service", Detail: ctx.Err().Error()})
		return
	}
	if err != nil {
		if f, isFault := err.(*Fault); isFault {
			e.fault(ctx, w, msg.Operation, f)
			return
		}
		e.fault(ctx, w, msg.Operation, &Fault{Code: "soap:Server", String: err.Error()})
		return
	}
	reply, err := marshalPooled(Message{Operation: msg.Operation + "Response", Parts: out, Trace: msg.Trace})
	if err != nil {
		e.fault(ctx, w, msg.Operation, &Fault{Code: "soap:Server", String: "marshalling response", Detail: err.Error()})
		return
	}
	defer reply.release() // Write has copied or sent the bytes by the time it returns
	serverLog.Info(ctx, msg.Operation, "service", e.ServiceName, "status", "ok",
		"dur_ms", span.DurationMS())
	writeEnvelope(w, http.StatusOK, reply.data)
}

// writeEnvelope sends one envelope with its length declared, so a large
// reply is not chunked and the client can size its read buffer up front.
func writeEnvelope(w http.ResponseWriter, status int, envelope []byte) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(envelope)))
	w.WriteHeader(status)
	_, _ = w.Write(envelope)
}

// safeCall invokes a handler, converting a panic into a soap:Server
// fault so one broken invocation cannot take the hosting process (and
// every co-hosted service) down with it. http.ErrAbortHandler is the
// sanctioned way to abort a response and is re-raised untouched.
func (e *Endpoint) safeCall(ctx context.Context, operation string, h Handler, parts map[string]string) (out map[string]string, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if r == http.ErrAbortHandler {
			panic(r)
		}
		e.obsReg().Counter("soap_server_panics_total",
			"service="+e.ServiceName, "op="+operation).Inc()
		serverLog.Error(ctx, "handler_panic", "service", e.ServiceName,
			"op", operation, "panic", fmt.Sprint(r))
		out = nil
		err = &Fault{
			Code:   "soap:Server",
			String: fmt.Sprintf("internal error in %s.%s", e.ServiceName, operation),
			Detail: fmt.Sprintf("handler panic: %v", r),
		}
	}()
	return h(ctx, parts)
}

// observe records one request's metrics.
func (e *Endpoint) observe(operation string, durMS float64, err error) {
	reg := e.obsReg()
	svc := "service=" + e.ServiceName
	reg.Counter("soap_server_requests_total", svc, "op="+operation).Inc()
	reg.Histogram("soap_server_latency_ms", svc, "op="+operation).Observe(durMS)
	if err != nil {
		reg.Counter("soap_server_faults_total", svc, "class="+obs.FaultClass(err)).Inc()
	}
}

// fault answers with f on HTTP 500, the status SOAP 1.1 gives every fault.
func (e *Endpoint) fault(ctx context.Context, w http.ResponseWriter, operation string, f *Fault) {
	e.writeFault(ctx, w, operation, http.StatusInternalServerError, f)
}

func (e *Endpoint) writeFault(ctx context.Context, w http.ResponseWriter, operation string, status int, f *Fault) {
	serverLog.Warn(ctx, operation, "service", e.ServiceName, "fault", f.Code, "err", f.String)
	writeEnvelope(w, status, MarshalFault(f))
}
