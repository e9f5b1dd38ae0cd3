package core

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/soap"
)

// TestCloseDrainsGracefully covers the shutdown contract end to end: a
// Close issued while a request is in flight must (1) withdraw the
// host's entries from the external registry before anything else, (2)
// flip /healthz to "draining" while the in-flight request finishes, and
// (3) let that request complete successfully before the listener dies.
func TestCloseDrainsGracefully(t *testing.T) {
	extReg := registry.New()
	extSrv := httptest.NewServer(extReg.Handler())
	defer extSrv.Close()

	// Chaos latency stretches every service call so the test can observe
	// the draining window.
	inj := chaos.New(1, chaos.Rule{Latency: 300 * time.Millisecond})
	d, err := Deploy("127.0.0.1:0", nil,
		WithChaos(inj),
		WithExternalRegistry(extSrv.URL),
		WithDrainGrace(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(extReg.Inquire("", "")) == 0 {
		t.Fatal("deployment did not publish to the external registry")
	}

	admitted := admittedOnce()
	callDone := make(chan error, 1)
	go func() {
		_, err := soap.CallContext(context.Background(),
			d.EndpointURL("Classifier"), "getClassifiers", nil)
		callDone <- err
	}()
	// Wait until the request is admitted (inside the chaos delay).
	waitUntil(t, time.Second, admitted)

	closeDone := make(chan error, 1)
	go func() { closeDone <- d.Close() }()

	sawDraining := false
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && !sawDraining {
		resp, err := http.Get(d.BaseURL + "/healthz")
		if err != nil {
			break // listener already closed
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), `"draining"`) {
			sawDraining = true
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("draining /healthz answered HTTP %d, want 503", resp.StatusCode)
			}
			// Withdrawal happens before the drain begins, so by the time
			// /healthz reports draining the registry must be empty.
			if n := len(extReg.Inquire("", "")); n != 0 {
				t.Errorf("external registry still lists %d entries during drain", n)
			}
			if got := len(d.Registry.Inquire("", "")); got != 0 {
				t.Errorf("own registry still lists %d entries during drain", got)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawDraining {
		t.Error("/healthz never reported draining during Close")
	}
	if err := <-callDone; err != nil {
		t.Errorf("in-flight request failed during drain: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestClosedDeploymentShedsNewWork: requests arriving after Close are
// answered with a fault (until the listener closes), never hung.
func TestDrainRejectsNewRequests(t *testing.T) {
	inj := chaos.New(1, chaos.Rule{Latency: 200 * time.Millisecond})
	d, err := Deploy("127.0.0.1:0", nil, WithChaos(inj), WithDrainGrace(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	admitted := admittedOnce()
	hold := make(chan error, 1)
	go func() {
		_, err := soap.CallContext(context.Background(),
			d.EndpointURL("Classifier"), "getClassifiers", nil)
		hold <- err
	}()
	waitUntil(t, time.Second, admitted)
	closeDone := make(chan error, 1)
	go func() { closeDone <- d.Close() }()
	waitUntil(t, time.Second, func() bool {
		resp, err := http.Get(d.BaseURL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return strings.Contains(string(body), `"draining"`)
	})

	_, err = soap.CallContext(context.Background(),
		d.EndpointURL("Classifier"), "getClassifiers", nil)
	if err == nil {
		t.Fatal("draining deployment accepted new work")
	}
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != "soap:Server.Draining" {
		t.Errorf("drain rejection = %v, want a soap:Server.Draining fault", err)
	}
	if err := <-hold; err != nil {
		t.Errorf("in-flight request failed: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Errorf("close: %v", err)
	}
}

// admittedOnce returns a condition that holds once an admission
// controller has admitted a request since the call: a delta on the
// admission_admitted_total counter every controller exports.
func admittedOnce() func() bool {
	c := obs.Default.Counter("admission_admitted_total")
	base := c.Value()
	return func() bool { return c.Value() > base }
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
