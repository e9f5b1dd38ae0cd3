package workflow

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/soap"
)

// TestTracePropagatesClientServerWorkflow is the observability layer's
// end-to-end check: one trace ID minted before Engine.Run must reach every
// workflow span (run + tasks), the SOAP client span, and — through the
// TraceContext SOAP header — the server-side handler.
func TestTracePropagatesClientServerWorkflow(t *testing.T) {
	var mu sync.Mutex
	serverTraces := map[string]bool{}
	ep := soap.NewEndpoint("Echo")
	ep.Handle("shout", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		tc, _ := obs.TraceFrom(ctx)
		mu.Lock()
		serverTraces[tc.TraceID] = true
		mu.Unlock()
		return map[string]string{"reply": strings.ToUpper(parts["text"])}, nil
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	g := NewGraph("traced")
	g.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"text": "hi"}})
	g.MustAdd("call", &SOAPUnit{Endpoint: srv.URL, Service: "Echo", Operation: "shout",
		In: []string{"text"}, Out: []string{"reply"}})
	g.MustConnect("src", "text", "call", "text")

	col := obs.NewCollector()
	ctx := obs.ContextWithCollector(context.Background(), col)
	ctx, tc := obs.EnsureTrace(ctx)

	res, err := NewEngine().Run(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Value("call", "reply"); got != "HI" {
		t.Fatalf("reply = %q", got)
	}

	spans := col.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}
	components := map[string]bool{}
	names := map[string]bool{}
	for _, s := range spans {
		if s.TraceID != tc.TraceID {
			t.Errorf("span %s/%s has trace %s, want %s", s.Component, s.Name, s.TraceID, tc.TraceID)
		}
		components[s.Component] = true
		names[s.Name] = true
	}
	for _, want := range []string{"workflow", "soap.client"} {
		if !components[want] {
			t.Errorf("no %s span collected; got components %v", want, components)
		}
	}
	for _, want := range []string{"run:traced", "task:call", "shout"} {
		if !names[want] {
			t.Errorf("no %q span collected; got %v", want, names)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(serverTraces) != 1 || !serverTraces[tc.TraceID] {
		t.Errorf("server saw traces %v, want exactly {%s}", serverTraces, tc.TraceID)
	}
}

// TestEngineMetrics checks the engine's per-task accounting in
// obs.Default.
func TestEngineMetrics(t *testing.T) {
	g := NewGraph("counted")
	g.MustAdd("a", &ConstUnit{UnitName: "a", Values: Values{"x": "1"}})
	g.MustAdd("b", &ConstUnit{UnitName: "b", Values: Values{"y": "2"}})

	ok, wall := obs.Key("workflow_tasks_total", "status=ok"), "workflow_task_wall_ms"
	before := obs.Default.Snapshot()
	if _, err := NewEngine().Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()
	if got := after.Counters[ok] - before.Counters[ok]; got != 2 {
		t.Errorf("ok tasks rose by %d, want 2", got)
	}
	if got := after.Histograms[wall].Count - before.Histograms[wall].Count; got != 2 {
		t.Errorf("task wall samples rose by %d, want 2", got)
	}
	if got := after.Gauges["workflow_inflight_tasks"]; got != 0 {
		t.Errorf("inflight after run = %d", got)
	}
}
