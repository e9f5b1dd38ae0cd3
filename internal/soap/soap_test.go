package soap

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	msg := Message{Operation: "classify", Parts: map[string]string{
		"dataset":   "@relation r\n@data\n",
		"attribute": "Class",
		"weird":     "<>&\"' and unicode ☃",
	}}
	b, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Operation != "classify" {
		t.Fatalf("operation = %q", got.Operation)
	}
	for k, v := range msg.Parts {
		if got.Parts[k] != v {
			t.Fatalf("part %q: %q != %q", k, got.Parts[k], v)
		}
	}
}

func TestMarshalRejectsBadNames(t *testing.T) {
	if _, err := Marshal(Message{Operation: ""}); err == nil {
		t.Fatal("empty operation accepted")
	}
	if _, err := Marshal(Message{Operation: "op", Parts: map[string]string{"bad name": "v"}}); err == nil {
		t.Fatal("part name with space accepted")
	}
	if _, err := Marshal(Message{Operation: "op", Parts: map[string]string{"1bad": "v"}}); err == nil {
		t.Fatal("digit-leading part name accepted")
	}
	if _, err := Marshal(Message{Operation: "op", Parts: map[string]string{"xmlish": "v"}}); err == nil {
		t.Fatal("xml-prefixed part name accepted")
	}
}

func TestUnmarshalFault(t *testing.T) {
	f := &Fault{Code: "soap:Server", String: "boom", Detail: "stack"}
	_, err := Unmarshal(strings.NewReader(string(MarshalFault(f))))
	got, ok := err.(*Fault)
	if !ok {
		t.Fatalf("error = %v, want *Fault", err)
	}
	if got.Code != "soap:Server" || got.String != "boom" || got.Detail != "stack" {
		t.Fatalf("fault = %+v", got)
	}
	if !strings.Contains(got.Error(), "boom") {
		t.Fatalf("Error() = %q", got.Error())
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	for _, doc := range []string{
		"",
		"<notsoap/>",
		"<Envelope><Body></Body></Envelope>", // no operation
		"<Envelope><Body><op><unclosed></op></Body></Envelope>",
	} {
		if _, err := Unmarshal(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(val1, val2 string) bool {
		// Strip characters XML cannot carry at all (control chars).
		clean := func(s string) string {
			var b strings.Builder
			for _, r := range s {
				if r == 0x9 || r == 0xA || r == 0xD || (r >= 0x20 && r != 0xFFFE && r != 0xFFFF) {
					b.WriteRune(r)
				}
			}
			return b.String()
		}
		msg := Message{Operation: "op", Parts: map[string]string{
			"a": clean(val1), "b": clean(val2),
		}}
		b, err := Marshal(msg)
		if err != nil {
			return false
		}
		got, err := Unmarshal(strings.NewReader(string(b)))
		if err != nil {
			return false
		}
		// XML normalises CR to LF; accept that.
		norm := func(s string) string { return strings.ReplaceAll(s, "\r", "\n") }
		return norm(got.Parts["a"]) == norm(msg.Parts["a"]) &&
			norm(got.Parts["b"]) == norm(msg.Parts["b"])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newTestEndpoint(t *testing.T) (*Endpoint, *httptest.Server) {
	t.Helper()
	ep := NewEndpoint("Echo")
	ep.Handle("echo", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		out := map[string]string{}
		for k, v := range parts {
			out[k] = v + v
		}
		return out, nil
	})
	ep.Handle("fail", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	ep.Handle("clientFault", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		return nil, &Fault{Code: "soap:Client", String: "you did it wrong"}
	})
	srv := httptest.NewServer(ep)
	t.Cleanup(srv.Close)
	return ep, srv
}

func TestClientServerRoundTrip(t *testing.T) {
	_, srv := newTestEndpoint(t)
	out, err := CallContext(context.Background(), srv.URL, "echo", map[string]string{"x": "ab"})
	if err != nil {
		t.Fatal(err)
	}
	if out["x"] != "abab" {
		t.Fatalf("echo returned %v", out)
	}
}

func TestServerFaults(t *testing.T) {
	_, srv := newTestEndpoint(t)
	_, err := CallContext(context.Background(), srv.URL, "fail", nil)
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("error = %v, want fault", err)
	}
	if f.Code != "soap:Server" || !strings.Contains(f.String, "deliberate") {
		t.Fatalf("fault = %+v", f)
	}
	_, err = CallContext(context.Background(), srv.URL, "clientFault", nil)
	f, ok = err.(*Fault)
	if !ok || f.Code != "soap:Client" {
		t.Fatalf("client fault = %v", err)
	}
	// Unknown operation.
	_, err = CallContext(context.Background(), srv.URL, "nonsense", nil)
	if f, ok = err.(*Fault); !ok || !strings.Contains(f.String, "no operation") {
		t.Fatalf("unknown-op error = %v", err)
	}
}

func TestEndpointRejectsGET(t *testing.T) {
	_, srv := newTestEndpoint(t)
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

func TestEndpointOperations(t *testing.T) {
	ep, _ := newTestEndpoint(t)
	if len(ep.handlers) != 3 || ep.handlers["clientFault"] == nil {
		t.Fatalf("operations = %v", ep.handlers)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	ep.Handle("echo", nil)
}

func TestCallAgainstDeadServer(t *testing.T) {
	if _, err := CallContext(context.Background(), "http://127.0.0.1:1/none", "op", nil); err == nil {
		t.Fatal("call to dead server succeeded")
	}
}
