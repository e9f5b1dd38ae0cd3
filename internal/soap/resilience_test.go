package soap

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestServerRecoversHandlerPanic: a panicking handler must produce a
// soap:Server fault (and a panic counter), not kill the connection — the
// hosting process co-hosts every other service.
func TestServerRecoversHandlerPanic(t *testing.T) {
	reg := obs.NewRegistry()
	ep := NewEndpoint("Fragile")
	ep.Observer = reg
	ep.Handle("boom", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		panic("nil dereference, probably")
	})
	ep.Handle("fine", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		return map[string]string{"ok": "yes"}, nil
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	_, err := CallContext(context.Background(), srv.URL, "boom", nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != "soap:Server" {
		t.Fatalf("panic surfaced as %v, want soap:Server fault", err)
	}
	if !strings.Contains(f.Detail, "nil dereference") {
		t.Fatalf("fault detail %q lost the panic value", f.Detail)
	}
	if got := reg.Counter("soap_server_panics_total", "service=Fragile", "op=boom").Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	// The endpoint keeps serving after the panic.
	out, err := CallContext(context.Background(), srv.URL, "fine", nil)
	if err != nil || out["ok"] != "yes" {
		t.Fatalf("endpoint broken after panic: out=%v err=%v", out, err)
	}
}

// TestServerPropagatesAbortPanic: http.ErrAbortHandler is the sanctioned
// abort signal (chaos drop injection relies on it) and must pass through.
func TestServerPropagatesAbortPanic(t *testing.T) {
	ep := NewEndpoint("Aborter")
	ep.Handle("drop", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		panic(http.ErrAbortHandler)
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	_, err := CallContext(context.Background(), srv.URL, "drop", nil)
	if err == nil {
		t.Fatal("aborted call succeeded")
	}
	var f *Fault
	if errors.As(err, &f) {
		t.Fatalf("abort produced a fault envelope (%v), want a transport error", f)
	}
}
