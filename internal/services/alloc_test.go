package services

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/arff"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/soap"
	"repro/internal/wire"
)

// serveOnce posts one operation envelope to ep through ServeHTTP and
// returns the reply's parts.
func serveOnce(t testing.TB, ep http.Handler, op string, parts map[string]string) map[string]string {
	t.Helper()
	env, err := soap.Marshal(soap.Message{Operation: op, Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	ep.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/services/Session", bytes.NewReader(env)))
	reply, err := soap.Unmarshal(rec.Body)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return reply.Parts
}

// TestSessionCallAllocs holds call_small's two server halves — a one-row
// Session classify (ARFF) and classifyBatch (dmb1) on a resident J48
// session — to what one row needs: the schema comes from the intern
// table, the row from storage sized to it, and the SOAP instruments from
// the endpoint's per-op entry. The request and recorder are counted too.
func TestSessionCallAllocs(t *testing.T) {
	ep := NewSessionService(harness.NewCachedBackend(8)).Endpoint
	train := datagen.RandomNominal(512, 10, 4, 0.2, 1)
	token := serveOnce(t, ep, "createSession", map[string]string{
		"dataset": arff.Format(train), "classifier": "J48",
	})[PartSession]
	one := dataset.NewView(datagen.RandomNominal(16, 10, 4, 0.2, 2), []int{3}).Materialize()
	payload, err := wire.MarshalBase64(one)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op      string
		parts   map[string]string
		ceiling float64
	}{
		// Measured 46 and 55, 52 and 61 under -race (whose sync.Pool drops
		// some puts). Before schemas were interned and the SOAP instruments
		// resolved once per op, the two took 210 and 189.
		{"classify", map[string]string{PartSession: token, PartInstances: arff.Format(one)}, 58},
		{"classifyBatch", map[string]string{PartSession: token, PartPayload: payload, PartEncoding: wire.Encoding}, 66},
	} {
		env, err := soap.Marshal(soap.Message{Operation: c.op, Parts: c.parts})
		if err != nil {
			t.Fatal(err)
		}
		body := bytes.NewReader(env)
		req := httptest.NewRequest(http.MethodPost, "/services/Session", io.NopCloser(body))
		call := func() {
			body.Reset(env)
			rec := httptest.NewRecorder()
			ep.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %s", c.op, rec.Code, rec.Body)
			}
		}
		call() // the first call interns the schema and resolves the instruments
		if n := testing.AllocsPerRun(200, call); n > c.ceiling {
			t.Errorf("%s allocates %v times per call, want <= %v", c.op, n, c.ceiling)
		}
	}
}
