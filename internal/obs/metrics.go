// Package obs is the toolkit's observability substrate: a stdlib-only
// metrics registry (counters, gauges, pre-bucketed latency histograms)
// exposed as JSON at /metrics, trace-context propagation carried in SOAP
// header blocks and context.Context, and structured event logging with
// per-component levels. The paper's FAEHIM toolkit composes long-running
// WEKA services but offers no way to see where a composition spends time
// or fails; this package is the measurement layer the ROADMAP's
// production-scale goal requires — DAME-style framework-wide job
// monitoring over the paper's service fabric.
package obs

import (
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// defaultLatencyBuckets are the histogram upper bounds, in milliseconds.
// The range covers sub-millisecond in-process handlers up to the paper's
// multi-second WAN classifier calls.
var defaultLatencyBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depths, pool sizes).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into pre-declared buckets. It is
// intended for latencies in milliseconds but the unit is the caller's.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // ascending upper bounds
	counts  []int64   // len(bounds)+1; last is +Inf
	sum     float64
	samples int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.samples++
}

// histogramSnapshot is the JSON form of a histogram.
type histogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // cumulative per bound, then +Inf
}

func (h *Histogram) snapshot() histogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := histogramSnapshot{Count: h.samples, Sum: h.sum,
		Bounds: append([]float64(nil), h.bounds...)}
	var cum int64
	for _, c := range h.counts {
		cum += c
		s.Buckets = append(s.Buckets, cum)
	}
	return s
}

// Registry holds named metrics. Metric identity is name plus sorted
// "key=value" labels, rendered as name{k=v,k=v}. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	start time.Time

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:      time.Now(),
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Default is the process-wide registry instrumented components fall back
// to when none is injected.
var Default = NewRegistry()

// Key renders a metric identity: name{k=v,...} with labels sorted, or the
// bare name without labels. Labels are "key=value" strings.
func Key(name string, labels ...string) string {
	switch len(labels) {
	case 0:
		return name
	case 1:
		return name + "{" + labels[0] + "}"
	}
	var fixed [8]string // sorted on the stack; more labels allocate
	ls := append(fixed[:0], labels...)
	slices.Sort(ls)
	return name + "{" + strings.Join(ls, ",") + "}"
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	k := Key(name, labels...)
	r.mu.RLock()
	c, ok := r.counters[k]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[k]; ok {
		return c
	}
	c = &Counter{}
	r.counters[k] = c
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	k := Key(name, labels...)
	r.mu.RLock()
	g, ok := r.gauges[k]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[k]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[k] = g
	return g
}

// Histogram returns (creating on first use) the named histogram with
// defaultLatencyBuckets.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	k := Key(name, labels...)
	r.mu.RLock()
	h, ok := r.histograms[k]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[k]; ok {
		return h
	}
	h = &Histogram{bounds: defaultLatencyBuckets,
		counts: make([]int64, len(defaultLatencyBuckets)+1)}
	r.histograms[k] = h
	return h
}

// Snapshot is the JSON document served at /metrics.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]histogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Counters:      make(map[string]int64, len(r.counters)),
		Gauges:        make(map[string]int64, len(r.gauges)),
		Histograms:    make(map[string]histogramSnapshot, len(r.histograms)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.histograms {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

// Handler serves the registry snapshot as JSON — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// HealthHandlerStatus serves /healthz: 200 {"status":"ok"} while status
// (nil: always "ok") reports "ok". Any other status (e.g. "draining") is
// reported verbatim with a 503, so health-checking clients stop routing
// to a server before it closes.
func HealthHandlerStatus(status func() string) http.Handler {
	start := time.Now()
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		body := map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(start).Seconds(),
		}
		unhealthy := false
		if status != nil {
			if s := status(); s != "" && s != "ok" {
				body["status"] = s
				unhealthy = true
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if unhealthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(body)
	})
}

// FaultClass buckets an error for metric labels: nil -> "none", an error
// exposing a FaultCode (soap faults) keeps its code, anything else is
// "error". Both client and server sides label faults through this helper
// so the classes line up at /metrics.
func FaultClass(err error) string {
	if err == nil {
		return "none"
	}
	var c interface{ FaultCode() string }
	if errors.As(err, &c) {
		return c.FaultCode()
	}
	return "error"
}
