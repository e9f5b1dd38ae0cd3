package soap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// Client invokes SOAP operations over HTTP, one round trip per call:
// retry, failover and hedging belong to resilience.Pool.Do, which calls
// the client once per attempt. Construct it with NewClient; the zero
// value behaves like NewClient() with no options.
type Client struct {
	httpClient *http.Client
	timeout    time.Duration
	observer   *obs.Registry // nil means obs.Default; tests set their own
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the pooled transport (e.g. for tests or custom
// TLS). The supplied client's own timeout applies unless WithTimeout is
// also given.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.httpClient = hc }
}

// WithTimeout bounds each call that arrives without a context deadline.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// NewClient builds a client over the shared pooled transport.
func NewClient(opts ...Option) *Client {
	c := &Client{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// sharedHTTPClient is the pooled transport used when a Client has no
// explicit HTTP client. A single client (rather than one per call) keeps
// idle connections alive between invocations, so repeated calls to the
// same service reuse TCP connections instead of re-dialling each time.
var sharedHTTPClient = &http.Client{
	Timeout: 30 * time.Second,
	Transport: &http.Transport{
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	},
}

// defaultClient backs the package-level Call/CallContext helpers.
var defaultClient = NewClient()

func (c *Client) http() *http.Client {
	if c.httpClient != nil {
		return c.httpClient
	}
	return sharedHTTPClient
}

func (c *Client) obsReg() *obs.Registry {
	if c.observer != nil {
		return c.observer
	}
	return obs.Default
}

var clientLog = obs.L("soap.client")

// CallContext posts an operation envelope to url and returns the response
// parts. The request is bound to ctx, so callers can cancel an in-flight
// call or impose a deadline; without a deadline the client's WithTimeout
// applies. The obs trace context in ctx travels in a SOAP header block so
// the server joins the same trace. The call is a single attempt.
// Service-side failures come back as *Fault errors; bare HTTP failures (a
// non-2xx status with no envelope) are mapped to a *Fault too —
// soap:Server for 5xx (retryable), soap:Client for 4xx.
func (c *Client) CallContext(ctx context.Context, url, operation string, parts map[string]string) (map[string]string, error) {
	ctx, span := obs.StartSpan(ctx, "soap.client", operation)
	span.SetAttr("endpoint", url)
	msg := Message{Operation: operation, Parts: parts}
	if tc, ok := obs.TraceFrom(ctx); ok {
		msg.Trace = tc.HeaderValue()
	}
	out, err := c.do(ctx, url, operation, msg)
	span.End(err)

	reg := c.obsReg()
	reg.Counter("soap_client_requests_total", "op="+operation).Inc()
	reg.Histogram("soap_client_latency_ms", "op="+operation).Observe(span.DurationMS())
	if err != nil && errors.Is(ctx.Err(), context.Canceled) {
		// A cancelled in-flight call — typically the losing attempt of a
		// hedged race or an abandoned workflow — is bookkeeping, not a
		// service fault; count it apart so fault dashboards stay honest.
		reg.Counter("soap_client_cancelled_total", "op="+operation).Inc()
		clientLog.Debug(ctx, operation, "endpoint", url, "status", "cancelled")
	} else if err != nil {
		reg.Counter("soap_client_faults_total", "op="+operation, "class="+obs.FaultClass(err)).Inc()
		clientLog.Warn(ctx, operation, "endpoint", url, "err", err)
	} else {
		clientLog.Info(ctx, operation, "endpoint", url, "status", "ok",
			"dur_ms", span.DurationMS())
	}
	return out, err
}

// do renders msg into a pooled envelope and performs one HTTP round trip.
func (c *Client) do(ctx context.Context, url, operation string, msg Message) (map[string]string, error) {
	envelope, err := newSharedEnvelope(msg)
	if err != nil {
		return nil, err
	}
	defer envelope.release()
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, envelope.reader())
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	// What NewRequest works out by itself for a bytes.Reader body.
	req.ContentLength = int64(len(envelope.buf.data))
	req.GetBody = func() (io.ReadCloser, error) { return envelope.reader(), nil }
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	req.Header.Set("SOAPAction", `"`+operation+`"`)
	if msg.Trace != "" {
		req.Header.Set(obs.TraceHeaderName, msg.Trace)
	}
	// Propagate the effective deadline so the server can cancel work the
	// caller has already given up on instead of computing it.
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(DeadlineHeaderName, FormatDeadline(dl))
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("soap: calling %s at %s: %w", operation, url, err)
	}
	// Read the body fully before parsing: a partially-consumed body keeps
	// the pooled connection from being reused for the next call.
	raw, readErr := readBody(resp.Body, resp.ContentLength, maxEnvelopeBytes)
	_ = resp.Body.Close()
	if readErr != nil {
		var tooLarge *errTooLarge
		if errors.As(readErr, &tooLarge) {
			return nil, &Fault{Code: "soap:Server",
				String: fmt.Sprintf("response from %s %v", url, tooLarge)}
		}
		return nil, fmt.Errorf("soap: reading %s response from %s: %w", operation, url, readErr)
	}
	defer raw.release()
	reply, err := unmarshalBytes(raw.data)
	if err != nil {
		if f, isFault := err.(*Fault); isFault {
			// A shedding server says when a retry is worth trying; carry
			// the hint on the fault for Retry-After-aware backoff.
			f.Retry = retryAfterFrom(resp.Header)
			return nil, err
		}
		// No parseable envelope: a bare HTTP error (proxy page, plain-text
		// 503, …). Surface it as a typed fault so retry policies can
		// classify it like any service fault.
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			code := "soap:Server"
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				code = "soap:Client"
			}
			return nil, &Fault{Code: code,
				String: fmt.Sprintf("HTTP %s from %s", resp.Status, url),
				Detail: bodySnippet(raw.data)}
		}
		// A 2xx whose body is not a well-formed envelope: the server (or
		// something between) garbled the response. Type it soap:Server so
		// retry policies treat it like a server failure, not caller error.
		return nil, &Fault{Code: "soap:Server",
			String: fmt.Sprintf("malformed response envelope from %s", url),
			Detail: err.Error()}
	}
	if want := operation + "Response"; reply.Operation != want {
		return nil, fmt.Errorf("soap: expected %s, got %s", want, reply.Operation)
	}
	return reply.Parts, nil
}

// bodySnippet trims a non-envelope body for fault detail.
func bodySnippet(raw []byte) string {
	s := strings.TrimSpace(string(raw))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// CallContext invokes an operation using the package's default client.
func CallContext(ctx context.Context, url, operation string, parts map[string]string) (map[string]string, error) {
	return defaultClient.CallContext(ctx, url, operation, parts)
}
