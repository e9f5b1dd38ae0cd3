package workflow

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/soap"
	"repro/internal/wsdl"
)

func echoServer(t *testing.T) (*httptest.Server, *wsdl.Description) {
	t.Helper()
	ep := soap.NewEndpoint("Echo")
	ep.Handle("shout", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		return map[string]string{"reply": strings.ToUpper(parts["text"])}, nil
	})
	desc := &wsdl.Description{
		Service: "Echo",
		Ops: []wsdl.Operation{{
			Name:    "shout",
			Inputs:  []wsdl.Part{{Name: "text"}},
			Outputs: []wsdl.Part{{Name: "reply"}},
		}},
	}
	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	desc.Endpoint = srv.URL + "/services/Echo"
	mux.HandleFunc("/services/Echo", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			doc, err := wsdl.Generate(desc)
			if err != nil {
				http.Error(w, err.Error(), 500)
				return
			}
			_, _ = w.Write(doc)
			return
		}
		ep.ServeHTTP(w, r)
	})
	return srv, desc
}

// TestWSDLImportCreatesTools is experiment E10's workflow half: importing a
// WSDL interface creates one invocable tool per operation (§4).
func TestWSDLImportCreatesTools(t *testing.T) {
	_, desc := echoServer(t)
	parsed, err := FetchWSDL(desc.Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	units := UnitsFromDescription(parsed)
	if len(units) != 1 {
		t.Fatalf("imported %d units", len(units))
	}
	u := units[0]
	if u.Name() != "Echo.shout" {
		t.Fatalf("tool name = %q", u.Name())
	}
	if len(u.Inputs()) != 1 || u.Inputs()[0] != "text" {
		t.Fatalf("inputs = %v", u.Inputs())
	}
	// The imported tool is live: invoke it inside a workflow.
	g := NewGraph("remote")
	g.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"text": "quiet"}})
	g.MustAdd("call", u)
	g.MustConnect("src", "text", "call", "text")
	res, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Value("call", "reply"); got != "QUIET" {
		t.Fatalf("remote reply = %q", got)
	}
}

func TestFetchWSDLErrors(t *testing.T) {
	if _, err := FetchWSDL("http://127.0.0.1:1/none"); err == nil {
		t.Fatal("dead WSDL URL accepted")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("not wsdl"))
	}))
	defer srv.Close()
	if _, err := FetchWSDL(srv.URL); err == nil {
		t.Fatal("garbage WSDL accepted")
	}
}

func TestSOAPUnitFaultSurfacesAsError(t *testing.T) {
	ep := soap.NewEndpoint("F")
	ep.Handle("fail", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		return nil, &soap.Fault{Code: "soap:Server", String: "nope"}
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()
	u := &SOAPUnit{Endpoint: srv.URL, Service: "F", Operation: "fail", Out: []string{"x"}}
	if _, err := u.Run(context.Background(), Values{}); err == nil {
		t.Fatal("fault swallowed")
	}
}

func TestSOAPUnitHonoursContext(t *testing.T) {
	blocker := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-blocker
	}))
	defer srv.Close()
	defer close(blocker)
	u := &SOAPUnit{Endpoint: srv.URL, Service: "S", Operation: "slow"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := u.Run(ctx, Values{}); err == nil {
		t.Fatal("cancelled call succeeded")
	}
}
