package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one traced interval. Times are nanoseconds from the tracer's
// origin. Parent is the ID of the span that caused it, 0 for a root.
// Spans of one request share Trace, an obs trace ID, so server-side
// spans can later join the same trees.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// join starts a trace for one request: the returned context carries the
// trace ID to the server in the SOAP header.
func (t *tracer) join(ctx context.Context) (context.Context, string) {
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	return obs.ContextWithTrace(ctx, tc), tc.TraceID
}

func (t *tracer) add(parent int, trace, name string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return id
}

// root records the span of one real client call.
func (t *tracer) root(trace, name string, began, done time.Time) int {
	return t.add(0, trace, name, int64(began.Sub(t.origin)), int64(done.Sub(t.origin)))
}

// node is a stage of a replayed request: how long one call into a layer
// took, and the stages it contains. The replay measures stages one by
// one after the real call, so a tree is laid out into spans afterwards,
// children back to back from their parent's start.
type node struct {
	name     string
	dur      time.Duration
	rows     int // rows the stage processed, for per-row kernel figures
	children []*node
}

// time runs f as a child stage of n and returns the child.
func (n *node) time(name string, f func()) *node {
	began := time.Now()
	f()
	return n.add(name, time.Since(began))
}

func (n *node) add(name string, dur time.Duration) *node {
	c := &node{name: name, dur: dur}
	n.children = append(n.children, c)
	return c
}

// place lays the children of n out inside the span id, which starts at
// start.
func (t *tracer) place(n *node, id int, trace string, start int64) {
	at := start
	for _, c := range n.children {
		end := at + max(0, int64(c.dur)) // a paired difference can come out negative
		cid := t.add(id, trace, c.name, at, end)
		t.place(c, cid, trace, at)
		at = end
	}
}

// selfTimes returns, per span ID, the span's duration minus the time its
// children cover, overlapping children counted once. Replayed children
// are measured apart from their parent and may outlast it; they are not
// cut to fit, so a self time can be negative. Cutting would keep the
// overshoots of noise and drop the undershoots, and a layer's total over
// many requests would drift up.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, upto := int64(0), int64(math.MinInt64)
		for _, c := range cs {
			lo, hi := max(c.Start, upto), c.End
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// unattributedPct is the share of a root's time that no replayed stage
// accounts for: (root - sum of stages) / root, in percent. It is negative
// when the replay ran slower than the live request did.
func unattributedPct(root time.Duration, stages time.Duration) float64 {
	if root <= 0 {
		return 0
	}
	return 100 * float64(root-stages) / float64(root)
}

// layerOf maps a span name to its layer: the internal/ package name
// before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string, ledger map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	t.mu.Lock()
	doc := struct {
		Workload string             `json:"workload"`
		Ledger   map[string]float64 `json:"ledger"`
		Spans    []span             `json:"spans"`
	}{workload, ledger, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
