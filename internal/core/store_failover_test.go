package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arff"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/store"
)

// TestSessionFailoverAcrossReplicas is the kill-a-replica drill end to
// end: train a session on replica A, shut A down, and resume the session
// token on replica B — which shares only the model-store directory with A.
// B must answer from the stored snapshot with zero retraining.
func TestSessionFailoverAcrossReplicas(t *testing.T) {
	storeDir := t.TempDir()

	backendA := harness.NewCachedBackend(16)
	a, err := Deploy("127.0.0.1:0", backendA, WithModelStore(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	full := datagen.BreastCancer()
	out, err := soap.CallContext(context.Background(), a.EndpointURL("Session"), "createSession",
		map[string]string{
			"dataset":    arff.Format(full.Clone()),
			"classifier": "J48",
			"attribute":  "Class",
		})
	if err != nil {
		t.Fatal(err)
	}
	token := out["session"]
	if !strings.HasPrefix(token, "dms1.") {
		t.Fatalf("session id is not a portable token: %q", token)
	}
	unlabelled := full.Clone()
	for _, in := range unlabelled.Instances {
		in.Values[unlabelled.ClassIndex] = dataset.Missing
	}
	want, err := soap.CallContext(context.Background(), a.EndpointURL("Session"), "classify",
		map[string]string{"session": token, "instances": arff.Format(unlabelled)})
	if err != nil {
		t.Fatal(err)
	}
	if a.ModelStore().Len() == 0 {
		t.Fatal("replica A never snapshotted the trained model")
	}
	// Replica A dies. Its in-memory harness state dies with it.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	backendB := harness.NewCachedBackend(16)
	backendB.Obs = obs.NewRegistry()
	b, err := Deploy("127.0.0.1:0", backendB, WithModelStore(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := soap.CallContext(context.Background(), b.EndpointURL("Session"), "classify",
		map[string]string{"session": token, "instances": arff.Format(unlabelled)})
	if err != nil {
		t.Fatalf("resume on replica B: %v", err)
	}
	if got["labels"] != want["labels"] {
		t.Fatal("restored model's labels differ from the original model's")
	}
	if n := backendB.Obs.Counter("harness_builds_total").Value(); n != 0 {
		t.Fatalf("replica B retrained %d times, want 0", n)
	}
	if backendB.Obs.Counter("harness_store_restores_total").Value() == 0 {
		t.Fatal("replica B did not read the stored snapshot")
	}
	// The rest of the session protocol also works on the survivor.
	if _, err := soap.CallContext(context.Background(), b.EndpointURL("Session"), "getModel",
		map[string]string{"session": token}); err != nil {
		t.Fatalf("getModel on replica B: %v", err)
	}
	ev, err := soap.CallContext(context.Background(), b.EndpointURL("Session"), "evaluate",
		map[string]string{"session": token, "dataset": arff.Format(full.Clone())})
	if err != nil {
		t.Fatalf("evaluate on replica B: %v", err)
	}
	if ev["accuracy"] == "" {
		t.Fatal("evaluate returned no accuracy")
	}
	if _, err := soap.CallContext(context.Background(), b.EndpointURL("Session"), "closeSession",
		map[string]string{"session": token}); err != nil {
		t.Fatalf("closeSession on replica B: %v", err)
	}
	if _, err := soap.CallContext(context.Background(), b.EndpointURL("Session"), "getModel",
		map[string]string{"session": token}); err == nil {
		t.Fatal("closed session still usable on replica B")
	}
}

// TestSessionSurvivesCompactionAndFailover layers store GC on the
// failover drill: replica A trains a session and another process (here: a
// separate store handle) compacts the shared directory out from under the
// serving replicas. A — whose in-memory offsets now point at deleted
// segments — must keep serving through its memory tier, a restarted
// replica B must restore the session from the compacted generation with
// zero retrains, and new training must land in the new generation.
func TestSessionSurvivesCompactionAndFailover(t *testing.T) {
	storeDir := t.TempDir()

	backendA := harness.NewCachedBackend(16)
	a, err := Deploy("127.0.0.1:0", backendA, WithModelStore(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	full := datagen.BreastCancer()
	out, err := soap.CallContext(context.Background(), a.EndpointURL("Session"), "createSession",
		map[string]string{
			"dataset":    arff.Format(full.Clone()),
			"classifier": "J48",
			"attribute":  "Class",
		})
	if err != nil {
		t.Fatal(err)
	}
	token := out["session"]
	unlabelled := full.Clone()
	for _, in := range unlabelled.Instances {
		in.Values[unlabelled.ClassIndex] = dataset.Missing
	}
	want, err := soap.CallContext(context.Background(), a.EndpointURL("Session"), "classify",
		map[string]string{"session": token, "instances": arff.Format(unlabelled)})
	if err != nil {
		t.Fatal(err)
	}

	// An operator process compacts the shared directory while A serves.
	gc, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gc.Compact(); err != nil {
		t.Fatal(err)
	}
	gc.Close()

	// A's next classify must still answer — its store handle adopts the
	// new generation if the memory tier ever misses.
	got, err := soap.CallContext(context.Background(), a.EndpointURL("Session"), "classify",
		map[string]string{"session": token, "instances": arff.Format(unlabelled)})
	if err != nil {
		t.Fatalf("classify on A after concurrent compaction: %v", err)
	}
	if got["labels"] != want["labels"] {
		t.Fatal("labels changed after compaction on A")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh replica restores the session from the compacted store.
	backendB := harness.NewCachedBackend(16)
	backendB.Obs = obs.NewRegistry()
	b, err := Deploy("127.0.0.1:0", backendB, WithModelStore(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err = soap.CallContext(context.Background(), b.EndpointURL("Session"), "classify",
		map[string]string{"session": token, "instances": arff.Format(unlabelled)})
	if err != nil {
		t.Fatalf("resume on B from compacted store: %v", err)
	}
	if got["labels"] != want["labels"] {
		t.Fatal("restored-from-compaction labels differ")
	}
	if n := backendB.Obs.Counter("harness_builds_total").Value(); n != 0 {
		t.Fatalf("replica B retrained %d times, want 0", n)
	}
	if gen := b.ModelStore().Generation(); gen != 1 {
		t.Fatalf("replica B generation = %d, want 1", gen)
	}
	// New work lands in the new generation.
	if _, err := soap.CallContext(context.Background(), b.EndpointURL("Classifier"), "classifyInstance",
		map[string]string{
			"dataset":    arff.Format(datagen.WeatherNumeric()),
			"classifier": "NaiveBayes",
			"attribute":  "play",
		}); err != nil {
		t.Fatalf("post-compaction training on B: %v", err)
	}
}

// TestClassifyInstanceWarmAcrossReplicas shows the store also de-duplicates
// plain classifyInstance work between replicas: the same dataset digest +
// algorithm + options reaches the same content address, so replica B's
// first call restores rather than retrains.
func TestClassifyInstanceWarmAcrossReplicas(t *testing.T) {
	storeDir := t.TempDir()
	arffText := arff.Format(datagen.BreastCancer())
	parts := map[string]string{
		"dataset":    arffText,
		"classifier": "J48",
		"attribute":  "Class",
	}

	backendA := harness.NewCachedBackend(16)
	a, err := Deploy("127.0.0.1:0", backendA, WithModelStore(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := soap.CallContext(context.Background(), a.EndpointURL("Classifier"), "classifyInstance", parts); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	backendB := harness.NewCachedBackend(16)
	backendB.Obs = obs.NewRegistry()
	b, err := Deploy("127.0.0.1:0", backendB, WithModelStore(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := soap.CallContext(context.Background(), b.EndpointURL("Classifier"), "classifyInstance", parts); err != nil {
		t.Fatal(err)
	}
	if n := backendB.Obs.Counter("harness_builds_total").Value(); n != 0 {
		t.Fatalf("replica B retrained %d times, want 0", n)
	}
}
