package soap

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// zeros is an endless body that counts what is read from it.
type zeros struct{ read int }

func (z *zeros) Read(p []byte) (int, error) {
	clear(p)
	z.read += len(p)
	return len(p), nil
}

func TestReadBodyBounds(t *testing.T) {
	var tooLarge *errTooLarge

	// A declared length over the limit is refused before a byte is read.
	src := &zeros{}
	if _, err := readBody(src, 1001, 1000); !errors.As(err, &tooLarge) || src.read != 0 {
		t.Fatalf("declared overrun: err %v after reading %d bytes", err, src.read)
	}
	// An undeclared overrun stops at the first byte past the limit.
	src = &zeros{}
	if _, err := readBody(src, -1, 1000); !errors.As(err, &tooLarge) || src.read != 1001 {
		t.Fatalf("undeclared overrun: err %v after reading %d bytes", err, src.read)
	}
	// So does a body longer than it declared.
	src = &zeros{}
	if _, err := readBody(src, 10, 1000); !errors.As(err, &tooLarge) || src.read != 1001 {
		t.Fatalf("understated length: err %v after reading %d bytes", err, src.read)
	}
	// Bodies at the limit are read whole, declared or not.
	for _, declared := range []int64{1000, -1} {
		b, err := readBody(strings.NewReader(strings.Repeat("x", 1000)), declared, 1000)
		if err != nil || len(b.data) != 1000 {
			t.Fatalf("declared %d: %v", declared, err)
		}
		b.release()
	}
	// A read error is passed on, not mistaken for the end of the body.
	if _, err := readBody(io.MultiReader(strings.NewReader("<a>"), errReader{}), -1, 1000); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read error: got %v", err)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestServerBoundsRequestBody drives the real limit: an over-limit
// request is answered 413 with a soap:Client fault, and the endpoint
// reads nothing of a body that declares its overrun and at most one byte
// past maxEnvelopeBytes of one that does not.
func TestServerBoundsRequestBody(t *testing.T) {
	ep, _ := newTestEndpoint(t)
	for _, tc := range []struct {
		name     string
		declared int64
		mayRead  int
	}{
		{"declared", maxEnvelopeBytes + 1, 0},
		{"undeclared", -1, maxEnvelopeBytes + 1},
	} {
		src := &zeros{}
		req := httptest.NewRequest(http.MethodPost, "/", src)
		req.ContentLength = tc.declared
		rec := httptest.NewRecorder()
		ep.ServeHTTP(rec, req)
		_, err := unmarshalBytes(rec.Body.Bytes())
		f, _ := err.(*Fault)
		if rec.Code != http.StatusRequestEntityTooLarge || f == nil || f.Code != "soap:Client" ||
			!strings.Contains(f.String, "exceeds "+strconv.Itoa(maxEnvelopeBytes)+" bytes") {
			t.Errorf("%s overrun: HTTP %d, %v", tc.name, rec.Code, err)
		}
		if src.read > tc.mayRead {
			t.Errorf("%s overrun: endpoint read %d bytes, may read %d", tc.name, src.read, tc.mayRead)
		}
	}
}

// TestClientReportsOversizeResponse: a reply over the limit is named as
// such, not passed off as a malformed envelope.
func TestClientReportsOversizeResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxEnvelopeBytes+1))
		_, _ = io.WriteString(w, "<soap:Envelope>")
	}))
	defer srv.Close()
	_, err := CallContext(context.Background(), srv.URL, "op", nil)
	f, ok := err.(*Fault)
	if !ok || f.Code != "soap:Server" || !strings.Contains(f.String, "exceeds "+strconv.Itoa(maxEnvelopeBytes)+" bytes") {
		t.Fatalf("oversize response: got %v", err)
	}
}

// TestSharedEnvelopeOutlivesEarlyResponse: a server that answers before
// it has read the request leaves the transport still sending the body
// when CallContext returns. The pooled envelope must stay untouched until
// the transport closes that body — under -race, recycling it early shows
// as a write (the next call rendering into the buffer) racing the
// transport's read.
func TestSharedEnvelopeOutlivesEarlyResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusInternalServerError, MarshalFault(&Fault{Code: "soap:Client", String: "not read"}))
	}))
	defer srv.Close()
	parts := map[string]string{"payload": strings.Repeat("x", 4<<20)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// The fault, or a connection the server reset mid-request:
				// either way the call is over while bytes are in flight.
				_, _ = NewClient().CallContext(context.Background(), srv.URL, "op", parts)
			}
		}()
	}
	wg.Wait()
}

func TestSharedEnvelopeRefCount(t *testing.T) {
	env, err := newSharedEnvelope(Message{Operation: "op"})
	if err != nil {
		t.Fatal(err)
	}
	a, b := env.reader(), env.reader()
	got, _ := io.ReadAll(b)
	if want, _ := Marshal(Message{Operation: "op"}); string(got) != string(want) {
		t.Fatalf("body reads %q, want %q", got, want)
	}
	a.Close()
	a.Close() // a second Close does not release a second time
	env.release()
	if n := env.refs.Load(); n != 1 {
		t.Fatalf("%d holds left with one body open, want 1", n)
	}
	b.Close()
	if n := env.refs.Load(); n != 0 {
		t.Fatalf("%d holds left after the last Close, want 0", n)
	}
}
