package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceHeaderName is the HTTP header carrying the trace context when a
// request is not a SOAP envelope (registry calls, health probes). SOAP
// requests carry the same value in a TraceContext header block inside the
// envelope (see soap.Message.Trace).
const TraceHeaderName = "X-DM-Trace"

// TraceContext identifies a position in a distributed trace: the trace a
// request belongs to and the span that emitted it.
type TraceContext struct {
	TraceID string
	SpanID  string
}

// NewTraceID mints a 16-byte random trace ID in hex.
func NewTraceID() string { return randomHex(16) }

// NewSpanID mints an 8-byte random span ID in hex.
func NewSpanID() string { return randomHex(8) }

// randomHex mints n (at most 16) random bytes in hex; the only
// allocation is the returned string, since every span pays for one.
func randomHex(n int) string {
	var b [16]byte
	var dst [32]byte
	if _, err := rand.Read(b[:n]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// clock-derived ID rather than panicking in an observability path.
		return fmt.Sprintf("%0*x", n*2, time.Now().UnixNano())
	}
	return string(dst[:hex.Encode(dst[:], b[:n])])
}

// HeaderValue renders the wire form "traceID-spanID".
func (tc TraceContext) HeaderValue() string { return tc.TraceID + "-" + tc.SpanID }

// Valid reports whether both IDs are present.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" && tc.SpanID != "" }

// ParseTraceHeader parses the "traceID-spanID" wire form.
func ParseTraceHeader(s string) (TraceContext, bool) {
	s = strings.TrimSpace(s)
	i := strings.LastIndexByte(s, '-')
	if i <= 0 || i == len(s)-1 {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: s[:i], SpanID: s[i+1:]}
	return tc, tc.Valid()
}

type traceKey struct{}
type collectorKey struct{}

// ContextWithTrace attaches a trace context to ctx.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

// TraceFrom returns the trace context carried by ctx, if any. A nil ctx is
// accepted (and carries nothing) so loggers can be called trace-free.
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(traceKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}

// EnsureTrace returns ctx carrying a trace context, minting a fresh trace
// (root span) when none is present.
func EnsureTrace(ctx context.Context) (context.Context, TraceContext) {
	if tc, ok := TraceFrom(ctx); ok {
		return ctx, tc
	}
	tc := TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	return ContextWithTrace(ctx, tc), tc
}

// span is one finished timed operation in a trace tree.
type span struct {
	TraceID    string            `json:"trace"`
	SpanID     string            `json:"span"`
	ParentID   string            `json:"parent,omitempty"`
	Component  string            `json:"component"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"durationMs"`
	Err        string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Collector gathers finished spans so a CLI can dump a run's trace tree.
// It is bounded: once maxSpans spans are held, further spans are counted
// but dropped.
type Collector struct {
	mu       sync.Mutex
	spans    []span
	dropped  int
	maxSpans int
}

// NewCollector returns a collector bounded at 4096 spans.
func NewCollector() *Collector { return &Collector{maxSpans: 4096} }

// ContextWithCollector attaches a span collector to ctx; spans started
// under ctx are recorded into it when they end.
func ContextWithCollector(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, collectorKey{}, c)
}

// collectorFrom returns the collector carried by ctx, or nil.
func collectorFrom(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(collectorKey{}).(*Collector)
	return c
}

func (c *Collector) record(s span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxSpans > 0 && len(c.spans) >= c.maxSpans {
		c.dropped++
		return
	}
	c.spans = append(c.spans, s)
}

// Spans returns a copy of the recorded spans in completion order.
func (c *Collector) Spans() []span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]span(nil), c.spans...)
}

// Dropped returns how many spans were discarded over the bound.
func (c *Collector) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// ActiveSpan is a span under construction; call End exactly once.
type ActiveSpan struct {
	span      span
	collector *Collector
	ended     bool
	mu        sync.Mutex
}

// StartSpan begins a span under ctx's trace (minting a trace when absent)
// and returns a child context carrying the new span's identity, so
// downstream calls — including SOAP requests — nest under it. The span is
// recorded into ctx's collector, when one is attached, at End.
func StartSpan(ctx context.Context, component, name string) (context.Context, *ActiveSpan) {
	parent := ""
	tc, ok := TraceFrom(ctx)
	if ok {
		parent = tc.SpanID
	} else {
		tc = TraceContext{TraceID: NewTraceID()}
	}
	tc.SpanID = NewSpanID()
	s := &ActiveSpan{
		span: span{
			TraceID:   tc.TraceID,
			SpanID:    tc.SpanID,
			ParentID:  parent,
			Component: component,
			Name:      name,
			Start:     time.Now(),
		},
		collector: collectorFrom(ctx),
	}
	return ContextWithTrace(ctx, tc), s
}

// DurationMS returns the span's recorded duration; zero until End.
func (s *ActiveSpan) DurationMS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.span.DurationMS
}

// SetAttr records one key=value annotation on the span.
func (s *ActiveSpan) SetAttr(k, v string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.span.Attrs == nil {
		s.span.Attrs = map[string]string{}
	}
	s.span.Attrs[k] = v
}

// End finishes the span, recording err (may be nil) and the elapsed time.
// Repeat calls are no-ops.
func (s *ActiveSpan) End(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.span.DurationMS = float64(time.Since(s.span.Start)) / float64(time.Millisecond)
	if err != nil {
		s.span.Err = err.Error()
	}
	if s.collector != nil {
		s.collector.record(s.span)
	}
}

// TreeString renders the collected spans as indented trace trees, one root
// per line group, children ordered by start time:
//
//	trace 4bf92f…
//	  experiment job:j48-weather 52.1ms
//	    soap.client classifyInstance 48.7ms endpoint=http://…
func (c *Collector) TreeString() string {
	spans := c.Spans()
	if len(spans) == 0 {
		return "(no spans recorded)\n"
	}
	children := map[string][]span{} // parent span ID -> spans
	byTrace := map[string][]span{}  // trace ID -> roots
	ids := map[string]bool{}
	for _, s := range spans {
		ids[s.SpanID] = true
	}
	for _, s := range spans {
		if s.ParentID != "" && ids[s.ParentID] {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		}
	}
	traceIDs := make([]string, 0, len(byTrace))
	for id := range byTrace {
		traceIDs = append(traceIDs, id)
	}
	sort.Strings(traceIDs)

	var b strings.Builder
	var render func(s span, depth int)
	render = func(s span, depth int) {
		fmt.Fprintf(&b, "%s%s %s %.1fms", strings.Repeat("  ", depth+1), s.Component, s.Name, s.DurationMS)
		if s.Err != "" {
			fmt.Fprintf(&b, " error=%q", s.Err)
		}
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, s.Attrs[k])
		}
		b.WriteByte('\n')
		kids := append([]span(nil), children[s.SpanID]...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		for _, kid := range kids {
			render(kid, depth+1)
		}
	}
	for _, id := range traceIDs {
		fmt.Fprintf(&b, "trace %s\n", id)
		roots := byTrace[id]
		sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
		for _, root := range roots {
			render(root, 0)
		}
	}
	if d := c.Dropped(); d > 0 {
		fmt.Fprintf(&b, "(%d spans dropped over the %d-span bound)\n", d, c.maxSpans)
	}
	return b.String()
}
