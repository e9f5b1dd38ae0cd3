package registry

import (
	"context"
	"net/http/httptest"
	"testing"
)

func TestPublishInquire(t *testing.T) {
	r := New()
	entries := []Entry{
		{Name: "Classifier", Category: "classifier", WSDLURL: "http://x/Classifier"},
		{Name: "J48", Category: "classifier", WSDLURL: "http://x/J48"},
		{Name: "Plot", Category: "visualisation", WSDLURL: "http://x/Plot"},
	}
	for _, e := range entries {
		if err := r.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Publish(Entry{}); err == nil {
		t.Fatal("nameless entry accepted")
	}
	all := r.Inquire("", "")
	if len(all) != 3 || all[0].Name != "Classifier" {
		t.Fatalf("inquire all = %v", all)
	}
	cls := r.Inquire("", "classifier")
	if len(cls) != 2 {
		t.Fatalf("classifier entries = %v", cls)
	}
	sub := r.Inquire("j4", "")
	if len(sub) != 1 || sub[0].Name != "J48" {
		t.Fatalf("substring inquiry = %v", sub)
	}
	if e, ok := r.Get("Plot"); !ok || e.Category != "visualisation" {
		t.Fatalf("Get = %v %v", e, ok)
	}
	if e := r.Inquire("", ""); e[0].Published.IsZero() {
		t.Fatal("published timestamp not stamped")
	}
	r.Remove("J48")
	if _, ok := r.Get("J48"); ok {
		t.Fatal("entry survived removal")
	}
}

func TestPublishReplaces(t *testing.T) {
	r := New()
	_ = r.Publish(Entry{Name: "S", WSDLURL: "v1"})
	_ = r.Publish(Entry{Name: "S", WSDLURL: "v2"})
	if e, _ := r.Get("S"); e.WSDLURL != "v2" {
		t.Fatalf("entry = %+v", e)
	}
}

func TestHTTPInterface(t *testing.T) {
	r := New()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	if err := c.PublishContext(context.Background(), Entry{Name: "Cobweb", Category: "clustering", WSDLURL: "http://x/Cobweb"}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Inquire("cob", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "Cobweb" {
		t.Fatalf("inquiry = %v", got)
	}
	got, err = c.Inquire("", "clustering")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("category inquiry = %v", got)
	}
	// Bad publish payloads surface as errors.
	resp, err := srv.Client().Post(srv.URL+"/publish", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("empty publish status = %d", resp.StatusCode)
	}
	// Method guards.
	resp, err = srv.Client().Get(srv.URL + "/publish")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /publish status = %d", resp.StatusCode)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := &Client{BaseURL: "http://127.0.0.1:1"}
	if err := c.PublishContext(context.Background(), Entry{Name: "x"}); err == nil {
		t.Fatal("publish to dead server succeeded")
	}
	if _, err := c.Inquire("", ""); err == nil {
		t.Fatal("inquiry to dead server succeeded")
	}
}

func TestHTTPRemoveAndMethodGuards(t *testing.T) {
	r := New()
	_ = r.Publish(Entry{Name: "Doomed", WSDLURL: "http://x"})
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	// Remove over HTTP.
	resp, err := srv.Client().Post(srv.URL+"/remove?name=Doomed", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("remove status = %d", resp.StatusCode)
	}
	if _, ok := r.Get("Doomed"); ok {
		t.Fatal("entry survived HTTP remove")
	}
	// Remove without a name is a client error.
	resp, err = srv.Client().Post(srv.URL+"/remove", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("nameless remove status = %d", resp.StatusCode)
	}
	// GET /remove is rejected.
	resp, err = srv.Client().Get(srv.URL + "/remove?name=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /remove status = %d", resp.StatusCode)
	}
	// POST /inquiry is rejected.
	resp, err = srv.Client().Post(srv.URL+"/inquiry", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST /inquiry status = %d", resp.StatusCode)
	}
}

func TestClientCustomHTTPClient(t *testing.T) {
	r := New()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	if err := c.PublishContext(context.Background(), Entry{Name: "X", WSDLURL: "http://x"}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Inquire("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("entries = %v", got)
	}
}
