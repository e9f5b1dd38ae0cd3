package soap

import (
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeaderName carries the caller's absolute context deadline on
// the wire (RFC 3339 with nanoseconds). soap.Client stamps it from ctx;
// the server side (soap.Endpoint and the admission middleware) re-imposes
// it on the handler context, so work a caller has already abandoned is
// cancelled instead of computed.
const DeadlineHeaderName = "X-DM-Deadline"

// retryAfterHeaderName is the standard HTTP hint a shedding server sends
// with a ServerBusy fault: whole seconds until a retry is worth trying.
const retryAfterHeaderName = "Retry-After"

// retryAfterPreciseHeaderName carries the same hint as a Go duration
// string (e.g. "250ms"), because admission queues drain on sub-second
// timescales the standard header cannot express.
const retryAfterPreciseHeaderName = "X-DM-Retry-After"

// FormatDeadline renders an absolute deadline for DeadlineHeaderName.
func FormatDeadline(t time.Time) string {
	return t.UTC().Format(time.RFC3339Nano)
}

// ParseDeadline parses a DeadlineHeaderName value; ok is false for an
// empty or malformed header.
func ParseDeadline(s string) (time.Time, bool) {
	if s == "" {
		return time.Time{}, false
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}, false
	}
	return t, true
}

// SetRetryAfter stamps both retry-after hints on a response.
func SetRetryAfter(h http.Header, d time.Duration) {
	if d <= 0 {
		return
	}
	secs := int64(d / time.Second)
	if d%time.Second != 0 {
		secs++ // round up: the standard header must not promise too early
	}
	h.Set(retryAfterHeaderName, strconv.FormatInt(secs, 10))
	h.Set(retryAfterPreciseHeaderName, d.String())
}

// retryAfterFrom extracts the server's retry hint from response headers,
// preferring the precise duration form. Zero means no hint.
func retryAfterFrom(h http.Header) time.Duration {
	if v := h.Get(retryAfterPreciseHeaderName); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	if v := h.Get(retryAfterHeaderName); v != "" {
		if secs, err := strconv.ParseInt(v, 10, 64); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}
