package services

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arff"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestSessionServiceInteractiveUse(t *testing.T) {
	backend := harness.NewCachedBackend(8)
	base := hostServices(t, NewSessionService(backend))
	url := base + "/services/Session"

	full := datagen.BreastCancer()
	train, test, err := dataset.StratifiedSplit(full, 0.7, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}

	// Create: trains once.
	out, err := soap.CallContext(context.Background(), url, "createSession", map[string]string{
		"dataset":    arff.Format(train.Clone()),
		"classifier": "J48",
		"attribute":  "Class",
	})
	if err != nil {
		t.Fatal(err)
	}
	session := out["session"]
	if session == "" || out["algorithm"] != "J48" {
		t.Fatalf("createSession = %v", out)
	}

	// Interactive follow-ups reuse the pinned instance: the harness must
	// record the invocations without retraining (builds tracked via
	// Invocations staying cheap is benchmarked; here we assert behaviour).
	model1, err := soap.CallContext(context.Background(), url, "getModel", map[string]string{"session": session})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(model1["model"], "node-caps") {
		t.Fatalf("model:\n%s", model1["model"])
	}
	// Label unlabelled data.
	unlabelled := test.Clone()
	for _, in := range unlabelled.Instances {
		in.Values[unlabelled.ClassIndex] = dataset.Missing
	}
	out, err = soap.CallContext(context.Background(), url, "classify", map[string]string{
		"session":   session,
		"instances": arff.Format(unlabelled),
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := strings.Split(strings.TrimSpace(out["labels"]), "\n")
	if len(labels) != test.NumInstances() {
		t.Fatalf("labelled %d of %d", len(labels), test.NumInstances())
	}
	// Evaluate on the held-out share.
	out, err = soap.CallContext(context.Background(), url, "evaluate", map[string]string{
		"session": session,
		"dataset": arff.Format(test.Clone()),
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := strconv.ParseFloat(out["accuracy"], 64)
	if err != nil || acc < 0.6 {
		t.Fatalf("accuracy = %q", out["accuracy"])
	}
	// Close, then further use faults.
	if _, err := soap.CallContext(context.Background(), url, "closeSession", map[string]string{"session": session}); err != nil {
		t.Fatal(err)
	}
	if _, err := soap.CallContext(context.Background(), url, "getModel", map[string]string{"session": session}); err == nil {
		t.Fatal("closed session still usable")
	}
	if _, err := soap.CallContext(context.Background(), url, "closeSession", map[string]string{"session": session}); err == nil {
		t.Fatal("double close accepted")
	}
}

func TestSessionSurvivesEviction(t *testing.T) {
	// A pool of one: creating a second session evicts the first, but the
	// harness rebuilds it transparently on next use.
	backend := harness.NewCachedBackend(1)
	base := hostServices(t, NewSessionService(backend))
	url := base + "/services/Session"
	weather := arff.Format(datagen.Weather())
	bc := arff.Format(datagen.BreastCancer())

	out1, err := soap.CallContext(context.Background(), url, "createSession", map[string]string{
		"dataset": bc, "classifier": "J48", "attribute": "Class",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := soap.CallContext(context.Background(), url, "createSession", map[string]string{
		"dataset": weather, "classifier": "NaiveBayes", "attribute": "play",
	}); err != nil {
		t.Fatal(err)
	}
	// Session 1's instance was evicted; getModel must still work.
	out, err := soap.CallContext(context.Background(), url, "getModel", map[string]string{"session": out1["session"]})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out["model"], "node-caps") {
		t.Fatalf("rebuilt model:\n%s", out["model"])
	}
}

// TestSessionTokenPortableAcrossReplicas is the failover scenario at the
// service level: two independent Session services (distinct backends, as
// two dmserver processes would have) share one model-store directory. A
// token minted by replica A resumes on replica B from the stored snapshot
// — zero builds on B.
func TestSessionTokenPortableAcrossReplicas(t *testing.T) {
	dir := t.TempDir()
	storeA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer storeA.Close()
	storeB, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer storeB.Close()
	backendA := harness.NewCachedBackend(8)
	backendA.Durable = storeA
	backendB := harness.NewCachedBackend(8)
	backendB.Durable, backendB.Obs = storeB, obs.NewRegistry()
	urlA := hostServices(t, NewSessionService(backendA)) + "/services/Session"
	urlB := hostServices(t, NewSessionService(backendB)) + "/services/Session"

	full := datagen.BreastCancer()
	out, err := soap.CallContext(context.Background(), urlA, "createSession", map[string]string{
		"dataset": arff.Format(full.Clone()), "classifier": "J48", "attribute": "Class",
	})
	if err != nil {
		t.Fatal(err)
	}
	token := out["session"]
	if !strings.HasPrefix(token, "dms1.") {
		t.Fatalf("session id is not a portable token: %q", token)
	}

	// Replica B has never seen this session; it must answer from the store.
	unlabelled := full.Clone()
	for _, in := range unlabelled.Instances {
		in.Values[unlabelled.ClassIndex] = dataset.Missing
	}
	got, err := soap.CallContext(context.Background(), urlB, "classify", map[string]string{
		"session": token, "instances": arff.Format(unlabelled),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(got["labels"]), "\n")); n != full.NumInstances() {
		t.Fatalf("labelled %d of %d on the resuming replica", n, full.NumInstances())
	}
	if n := backendB.Obs.Counter("harness_builds_total").Value(); n != 0 {
		t.Fatalf("resuming replica retrained %d times, want 0", n)
	}
	if backendB.Obs.Counter("harness_store_restores_total").Value() == 0 {
		t.Fatal("resume did not read the stored snapshot")
	}
	// The labels must match what the creator's model produces.
	want, err := soap.CallContext(context.Background(), urlA, "classify", map[string]string{
		"session": token, "instances": arff.Format(unlabelled),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got["labels"] != want["labels"] {
		t.Fatal("replica B's restored model disagrees with replica A's")
	}
}

func TestSessionFaults(t *testing.T) {
	base := hostServices(t, NewSessionService(harness.NewCachedBackend(4)))
	url := base + "/services/Session"
	if _, err := soap.CallContext(context.Background(), url, "classify", map[string]string{
		"session": "ghost", "instances": arff.Format(datagen.Weather()),
	}); err == nil {
		t.Fatal("unknown session accepted")
	}
	if _, err := soap.CallContext(context.Background(), url, "createSession", map[string]string{
		"dataset": "junk", "classifier": "J48",
	}); err == nil {
		t.Fatal("malformed dataset accepted")
	}
}

// TestSessionOpsAgreeOnBuildFaults rebuilds an evicted session whose token
// names an unknown algorithm: every op that resumes a model must answer
// the builder's own soap:Client fault, not a retryable soap:Server wrapper
// around it.
func TestSessionOpsAgreeOnBuildFaults(t *testing.T) {
	backend := harness.NewCachedBackend(1)
	base := hostServices(t, NewSessionService(backend))
	url := base + "/services/Session"
	bc := datagen.BreastCancer()
	bcARFF := arff.Format(bc)

	out, err := soap.CallContext(context.Background(), url, "createSession", map[string]string{
		"dataset": bcARFF, "classifier": "J48", "attribute": "Class",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := soap.CallContext(context.Background(), url, "createSession", map[string]string{
		"dataset": arff.Format(datagen.Weather()), "classifier": "NaiveBayes", "attribute": "play",
	}); err != nil {
		t.Fatal(err)
	}
	tok, err := decodeToken(out["session"])
	if err != nil {
		t.Fatal(err)
	}
	tok.Alg = "Nope"
	session := encodeToken(tok)
	payload, err := wire.MarshalBase64(bc.Clone())
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		op    string
		parts map[string]string
	}{
		{"classify", map[string]string{"session": session, "instances": bcARFF}},
		{"evaluate", map[string]string{"session": session, "dataset": bcARFF}},
		{"getModel", map[string]string{"session": session}},
		{"classifyBatch", map[string]string{"session": session, "payload": payload, "encoding": wire.Encoding}},
	}
	faults := map[string][]string{}
	for _, c := range calls {
		_, err := soap.CallContext(context.Background(), url, c.op, c.parts)
		f, ok := err.(*soap.Fault)
		if !ok {
			t.Fatalf("%s: want a fault, got %v", c.op, err)
		}
		if f.Code != "soap:Client" || !strings.HasPrefix(f.String, `classify: unknown classifier "Nope"`) {
			t.Errorf("%s: fault %s | %s", c.op, f.Code, f.String)
		}
		faults[f.Code+" | "+f.String] = append(faults[f.Code+" | "+f.String], c.op)
	}
	if len(faults) != 1 {
		t.Errorf("ops disagree on the fault: %v", faults)
	}
}
