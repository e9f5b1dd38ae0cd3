package chaos

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/soap"
)

func TestParseRule(t *testing.T) {
	r, err := parseRule("op=classifyInstance, latency=200ms, fault=0.5, drop=0.1, truncate=0.25")
	if err != nil {
		t.Fatal(err)
	}
	want := Rule{Op: "classifyInstance", Latency: 200 * time.Millisecond,
		FaultRate: 0.5, DropRate: 0.1, TruncateRate: 0.25}
	if r != want {
		t.Fatalf("rule = %+v, want %+v", r, want)
	}
	for _, bad := range []string{"latency=fast", "fault=lots", "fault=-1", "what", "x=1"} {
		if _, err := parseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}
	rules, err := ParseRules("fault=1; op=getOptions,latency=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[1].Op != "getOptions" {
		t.Fatalf("rules = %+v", rules)
	}
}

// echoEndpoint hosts a one-operation SOAP service for middleware tests.
func echoEndpoint(t *testing.T, inj *Injector) (string, *soap.Client) {
	t.Helper()
	ep := soap.NewEndpoint("Echo")
	ep.Handle("ping", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		return map[string]string{"pong": parts["v"]}, nil
	})
	srv := httptest.NewServer(inj.Wrap(ep))
	t.Cleanup(srv.Close)
	return srv.URL, soap.NewClient(soap.WithTimeout(5 * time.Second))
}

func TestInjectFault(t *testing.T) {
	reg := obs.NewRegistry()
	inj := New(1, Rule{Op: "ping", FaultRate: 1})
	inj.Observer = reg
	url, client := echoEndpoint(t, inj)
	_, err := client.CallContext(context.Background(), url, "ping", map[string]string{"v": "x"})
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != "soap:Server" {
		t.Fatalf("err = %v, want an injected soap:Server fault", err)
	}
	if !strings.Contains(f.String, "chaos") {
		t.Fatalf("fault string %q does not identify the injection", f.String)
	}
	if got := reg.Counter("chaos_injections_total", "kind=fault", "op=ping").Value(); got != 1 {
		t.Fatalf("injection counter = %d, want 1", got)
	}
}

func TestOpScopedRulePassesOtherOps(t *testing.T) {
	inj := New(1, Rule{Op: "someOtherOp", FaultRate: 1})
	inj.Observer = obs.NewRegistry()
	url, client := echoEndpoint(t, inj)
	out, err := client.CallContext(context.Background(), url, "ping", map[string]string{"v": "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if out["pong"] != "ok" {
		t.Fatalf("pong = %q", out["pong"])
	}
}

func TestInjectDropIsTransportError(t *testing.T) {
	inj := New(1, Rule{DropRate: 1})
	inj.Observer = obs.NewRegistry()
	url, client := echoEndpoint(t, inj)
	_, err := client.CallContext(context.Background(), url, "ping", nil)
	if err == nil {
		t.Fatal("dropped connection returned no error")
	}
	var f *soap.Fault
	if errors.As(err, &f) {
		t.Fatalf("drop produced a parsed fault (%v), want a transport error", f)
	}
}

func TestInjectTruncateYieldsRetryableFault(t *testing.T) {
	inj := New(1, Rule{TruncateRate: 1})
	inj.Observer = obs.NewRegistry()
	url, client := echoEndpoint(t, inj)
	_, err := client.CallContext(context.Background(), url, "ping", map[string]string{"v": "x"})
	// The client maps an unparseable 2xx body to a soap:Server fault so
	// retry policies treat garbled responses like server failures.
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != "soap:Server" {
		t.Fatalf("truncated response error = %v, want soap:Server fault", err)
	}
}

func TestInjectLatency(t *testing.T) {
	inj := New(1, Rule{Latency: 80 * time.Millisecond})
	inj.Observer = obs.NewRegistry()
	url, client := echoEndpoint(t, inj)
	start := time.Now()
	if _, err := client.CallContext(context.Background(), url, "ping", nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("call finished in %v, want >= 80ms of injected latency", elapsed)
	}
}

func TestHeaderOverride(t *testing.T) {
	// No configured rules: only the per-request header injects.
	reg := obs.NewRegistry()
	inj := New(1)
	inj.Observer = reg
	url, client := echoEndpoint(t, inj)
	if _, err := client.CallContext(context.Background(), url, "ping", nil); err != nil {
		t.Fatalf("clean call failed: %v", err)
	}
	// Drive a raw request with the header; middleware reads SOAPAction.
	env, err := soap.Marshal(soap.Message{Operation: "ping", Parts: map[string]string{"v": "x"}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(env)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	req.Header.Set("SOAPAction", `"ping"`)
	req.Header.Set(headerName, "fault=1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 from header-forced fault", resp.StatusCode)
	}
	if got := reg.Counter("chaos_injections_total", "kind=fault", "op=ping").Value(); got != 1 {
		t.Fatalf("injection counter = %d, want 1", got)
	}
}

// The dice sequence is seeded: identical seeds and request orders give
// identical injection patterns, so chaotic test failures replay.
func TestDeterministicSequence(t *testing.T) {
	pattern := func(seed int64) []bool {
		inj := New(seed, Rule{FaultRate: 0.5})
		inj.Observer = obs.NewRegistry()
		var out []bool
		for i := 0; i < 32; i++ {
			out = append(out, inj.roll(0.5))
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different injection sequences")
		}
	}
	c := pattern(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 32-roll sequences")
	}
}

func TestNilInjectorPassesThrough(t *testing.T) {
	var inj *Injector
	url, client := echoEndpoint(t, inj)
	if _, err := client.CallContext(context.Background(), url, "ping", nil); err != nil {
		t.Fatal(err)
	}
}
