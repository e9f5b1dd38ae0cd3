package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestKey(t *testing.T) {
	if got := Key("requests_total"); got != "requests_total" {
		t.Errorf("bare key = %q", got)
	}
	// Labels are sorted, so argument order does not split a metric.
	a := Key("requests_total", "op=classify", "service=Classifier")
	b := Key("requests_total", "service=Classifier", "op=classify")
	if a != b {
		t.Errorf("label order changed identity: %q vs %q", a, b)
	}
	if want := "requests_total{op=classify,service=Classifier}"; a != want {
		t.Errorf("Key = %q, want %q", a, want)
	}
}

// TestKeyLabelCounts holds Key to the identities it rendered when it
// copied, sorted and joined every label list.
func TestKeyLabelCounts(t *testing.T) {
	for _, c := range []struct {
		labels []string
		want   string
	}{
		{nil, "m"},
		{[]string{"op=classify"}, "m{op=classify}"},
		{[]string{"service=S", "op=classify"}, "m{op=classify,service=S}"},
		{[]string{"op=b", "op=a"}, "m{op=a,op=b}"},
		{[]string{"z=1", "class=caller", "a="}, "m{a=,class=caller,z=1}"},
		{[]string{"b", "a", "c", "a"}, "m{a,a,b,c}"},
	} {
		in := slices.Clone(c.labels)
		if got := Key("m", c.labels...); got != c.want {
			t.Errorf("Key(m, %q) = %q, want %q", c.labels, got, c.want)
		}
		if !slices.Equal(in, c.labels) {
			t.Errorf("Key reordered its argument %q", in)
		}
	}
}

// TestLabelledLookupAllocs: a registry hit builds its key in one
// allocation with one label, in two with two.
func TestLabelledLookupAllocs(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "op=classify")
	r.Histogram("latency_ms", "service=S", "op=classify")
	if n := testing.AllocsPerRun(100, func() { r.Counter("requests_total", "op=classify").Inc() }); n > 1 {
		t.Errorf("one-label hit: %v allocations, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.Histogram("latency_ms", "service=S", "op=classify").Observe(1) }); n > 2 {
		t.Errorf("two-label hit: %v allocations, want <= 2", n)
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", "kind=a")
	c.Inc()
	c.Add(2)
	c.Add(-5) // negative deltas ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if r.Counter("hits", "kind=a") != c {
		t.Error("same name+labels should return the same counter")
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}

	h := r.Histogram("latency_ms")
	h.Observe(0.4)
	h.Observe(30)
	h.Observe(99999) // beyond the last bound: lands in +Inf
	if got := h.Count(); got != 3 {
		t.Errorf("histogram count = %d, want 3", got)
	}

	snap := r.Snapshot()
	if snap.Counters["hits{kind=a}"] != 3 {
		t.Errorf("snapshot counters = %v", snap.Counters)
	}
	if snap.Gauges["depth"] != 4 {
		t.Errorf("snapshot gauges = %v", snap.Gauges)
	}
	hs := snap.Histograms["latency_ms"]
	if hs.Count != 3 || len(hs.Buckets) != len(hs.Bounds)+1 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	if last := hs.Buckets[len(hs.Buckets)-1]; last != 3 {
		t.Errorf("+Inf cumulative bucket = %d, want 3", last)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 1600 {
		t.Errorf("counter after concurrent increments = %d, want 1600", got)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("soap_client_requests_total", "op=plot").Inc()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics body is not JSON: %v", err)
	}
	if snap.Counters["soap_client_requests_total{op=plot}"] != 1 {
		t.Errorf("served counters = %v", snap.Counters)
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}

func TestHealthHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	HealthHandlerStatus(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthy: code=%d body=%s", rec.Code, rec.Body.String())
	}

	draining := HealthHandlerStatus(func() string { return "draining" })
	rec = httptest.NewRecorder()
	draining.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), `"draining"`) {
		t.Errorf("draining: code=%d body=%s", rec.Code, rec.Body.String())
	}
}

type codedErr struct{ code string }

func (e codedErr) Error() string     { return "fault " + e.code }
func (e codedErr) FaultCode() string { return e.code }

func TestFaultClass(t *testing.T) {
	if got := FaultClass(nil); got != "none" {
		t.Errorf("nil -> %q", got)
	}
	if got := FaultClass(errors.New("boom")); got != "error" {
		t.Errorf("plain error -> %q", got)
	}
	if got := FaultClass(codedErr{"soap:Client"}); got != "soap:Client" {
		t.Errorf("coded error -> %q", got)
	}
	wrapped := fmt.Errorf("calling service: %w", codedErr{"soap:Server"})
	if got := FaultClass(wrapped); got != "soap:Server" {
		t.Errorf("wrapped coded error -> %q", got)
	}
}

func TestParseTraceHeader(t *testing.T) {
	tc, ok := ParseTraceHeader("abc123-def456")
	if !ok || tc.TraceID != "abc123" || tc.SpanID != "def456" {
		t.Errorf("parse = %+v ok=%v", tc, ok)
	}
	if tc.HeaderValue() != "abc123-def456" {
		t.Errorf("round trip = %q", tc.HeaderValue())
	}
	for _, bad := range []string{"", "noseparator", "-leading", "trailing-", "-"} {
		if _, ok := ParseTraceHeader(bad); ok {
			t.Errorf("ParseTraceHeader(%q) accepted", bad)
		}
	}
	// Trace IDs themselves may contain dashes; the last one separates.
	tc, ok = ParseTraceHeader("a-b-c")
	if !ok || tc.TraceID != "a-b" || tc.SpanID != "c" {
		t.Errorf("dashed trace = %+v ok=%v", tc, ok)
	}
}

func TestSpanPropagationAndCollector(t *testing.T) {
	col := NewCollector()
	ctx := ContextWithCollector(context.Background(), col)

	ctx, root := StartSpan(ctx, "workflow", "run:test")
	rootTC, ok := TraceFrom(ctx)
	if !ok || rootTC.TraceID == "" {
		t.Fatal("StartSpan did not mint a trace")
	}
	childCtx, child := StartSpan(ctx, "soap.client", "classify")
	childTC, _ := TraceFrom(childCtx)
	if childTC.TraceID != rootTC.TraceID {
		t.Errorf("child trace %s != root trace %s", childTC.TraceID, rootTC.TraceID)
	}
	child.SetAttr("endpoint", "http://example")
	child.End(errors.New("boom"))
	child.End(nil) // repeat End is a no-op
	root.End(nil)

	spans := col.Spans()
	if len(spans) != 2 {
		t.Fatalf("collected %d spans, want 2", len(spans))
	}
	if spans[0].ParentID != rootTC.SpanID {
		t.Errorf("child parent = %s, want %s", spans[0].ParentID, rootTC.SpanID)
	}
	if spans[0].Err != "boom" {
		t.Errorf("child err = %q", spans[0].Err)
	}

	tree := col.TreeString()
	if !strings.Contains(tree, "trace "+rootTC.TraceID) {
		t.Errorf("tree lacks trace line:\n%s", tree)
	}
	if !strings.Contains(tree, "workflow run:test") ||
		!strings.Contains(tree, "soap.client classify") ||
		!strings.Contains(tree, "endpoint=http://example") {
		t.Errorf("tree:\n%s", tree)
	}
	// The child renders deeper than the root.
	rootLine := strings.Index(tree, "workflow run:test")
	childLine := strings.Index(tree, "soap.client classify")
	if rootLine < 0 || childLine < 0 || childLine < rootLine {
		t.Errorf("tree order wrong:\n%s", tree)
	}
}

func TestEnsureTrace(t *testing.T) {
	ctx, tc := EnsureTrace(context.Background())
	if !tc.Valid() {
		t.Fatalf("EnsureTrace minted invalid %+v", tc)
	}
	ctx2, tc2 := EnsureTrace(ctx)
	if tc2.TraceID != tc.TraceID {
		t.Errorf("EnsureTrace re-minted: %s vs %s", tc2.TraceID, tc.TraceID)
	}
	if ctx2 != ctx {
		t.Error("EnsureTrace should return ctx unchanged when a trace exists")
	}
}

func TestCollectorBound(t *testing.T) {
	c := &Collector{maxSpans: 2}
	for i := 0; i < 5; i++ {
		c.record(span{TraceID: "t", SpanID: fmt.Sprintf("s%d", i)})
	}
	if got := len(c.Spans()); got != 2 {
		t.Errorf("spans kept = %d, want 2", got)
	}
	if got := c.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	if !strings.Contains(c.TreeString(), "3 spans dropped") {
		t.Errorf("tree does not mention drops:\n%s", c.TreeString())
	}
}

func TestLogLevelsAndTraceStamping(t *testing.T) {
	var buf bytes.Buffer
	logMu.Lock()
	logOut = &buf
	logMu.Unlock()
	t.Cleanup(func() {
		logMu.Lock()
		logOut = os.Stderr
		logMu.Unlock()
	})

	lg := L("obstest")
	SetDefaultLevel(LevelInfo)
	t.Cleanup(func() { SetDefaultLevel(LevelWarn) })

	lg.Debug(nil, "hidden")
	if buf.Len() != 0 {
		t.Errorf("debug line written below level: %q", buf.String())
	}
	if lg.Enabled(LevelDebug) || !lg.Enabled(LevelInfo) {
		t.Error("Enabled disagrees with configured level")
	}

	ctx := ContextWithTrace(context.Background(), TraceContext{TraceID: "tid", SpanID: "sid"})
	lg.Info(ctx, "event", "key", "a value", "dur_ms", 12.3456, "n", 7)
	line := buf.String()
	if !strings.Contains(line, "INFO") || !strings.Contains(line, "obstest event") {
		t.Errorf("log line = %q", line)
	}
	if !strings.Contains(line, "trace=tid span=sid") {
		t.Errorf("log line missing trace stamp: %q", line)
	}
	if !strings.Contains(line, `key="a value"`) {
		t.Errorf("value with spaces not quoted: %q", line)
	}
	if !strings.HasSuffix(line, " dur_ms=12.3 n=7\n") {
		t.Errorf("float64 value not written to one decimal place: %q", line)
	}

	SetDefaultLevel(LevelOff)
	buf.Reset()
	lg.Error(nil, "silenced")
	if buf.Len() != 0 {
		t.Errorf("LevelOff still wrote: %q", buf.String())
	}
}
