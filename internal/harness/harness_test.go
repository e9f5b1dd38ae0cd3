package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/store"
)

func j48Builder(t *testing.T, builds *int64) Builder {
	t.Helper()
	d := datagen.BreastCancer()
	return func() (classify.Classifier, error) {
		if builds != nil {
			atomic.AddInt64(builds, 1)
		}
		j := classify.NewJ48()
		if err := j.Train(d); err != nil {
			return nil, err
		}
		return j, nil
	}
}

// TestHarnessEquivalence (experiment E5): both backends must produce
// identical predictions — the harness changes performance, not behaviour.
func TestHarnessEquivalence(t *testing.T) {
	d := datagen.BreastCancer()
	store, err := model.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ser := &SerialisingBackend{Store: store}
	cache := NewCachedBackend(8)
	build := j48Builder(t, nil)
	for i := 0; i < 5; i++ {
		var serPred, cachePred int
		if err := Invoke(ser, "j48", build, func(c classify.Classifier) error {
			p, err := classify.Predict(c, d.Instances[i])
			serPred = p
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := Invoke(cache, "j48", build, func(c classify.Classifier) error {
			p, err := classify.Predict(c, d.Instances[i])
			cachePred = p
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if serPred != cachePred {
			t.Fatalf("invocation %d: backends disagree (%d vs %d)", i, serPred, cachePred)
		}
	}
}

func TestCachedBackendBuildsOnce(t *testing.T) {
	var builds int64
	cache := NewCachedBackend(4)
	build := j48Builder(t, &builds)
	for i := 0; i < 10; i++ {
		if err := Invoke(cache, "only", build, func(classify.Classifier) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 1 {
		t.Fatalf("built %d times, want 1 (the point of §4.5's harness)", builds)
	}
	if cache.Len() != 1 {
		t.Fatalf("pool holds %d", cache.Len())
	}
}

func TestSerialisingBackendRoundTripsEveryCall(t *testing.T) {
	var builds int64
	dir := t.TempDir()
	store, _ := model.NewStore(dir)
	ser := &SerialisingBackend{Store: store}
	build := j48Builder(t, &builds)
	for i := 0; i < 3; i++ {
		if err := Invoke(ser, "k", build, func(classify.Classifier) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Built only once, but every call re-loads from disk.
	if builds != 1 {
		t.Fatalf("built %d times", builds)
	}
	ids, _ := filepath.Glob(filepath.Join(dir, "*.model"))
	if len(ids) != 1 {
		t.Fatalf("store holds %v", ids)
	}
}

func TestCachedBackendLRUEviction(t *testing.T) {
	var builds int64
	cache := NewCachedBackend(2)
	build := j48Builder(t, &builds)
	for _, key := range []string{"a", "b", "c"} { // c evicts a
		if err := Invoke(cache, key, build, func(classify.Classifier) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("pool holds %d, want 2", cache.Len())
	}
	before := builds
	// "a" was evicted and there is no durable tier: it must rebuild.
	if err := Invoke(cache, "a", build, func(classify.Classifier) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if builds != before+1 {
		t.Fatalf("evicted key did not rebuild (builds %d -> %d)", before, builds)
	}
}

func TestBuilderFailurePropagates(t *testing.T) {
	cache := NewCachedBackend(2)
	bad := func() (classify.Classifier, error) { return nil, fmt.Errorf("nope") }
	if err := Invoke(cache, "x", bad, func(classify.Classifier) error { return nil }); err == nil {
		t.Fatal("builder failure swallowed")
	}
	if cache.Len() != 0 {
		t.Fatal("failed build cached")
	}
}

func TestLRUOrdering(t *testing.T) {
	var builds int64
	cache := NewCachedBackend(2)
	build := j48Builder(t, &builds)
	mustInvoke := func(key string) {
		if err := Invoke(cache, key, build, func(classify.Classifier) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	mustInvoke("a")
	mustInvoke("b")
	mustInvoke("a") // refresh a; b is now LRU
	mustInvoke("c") // evicts b
	before := builds
	mustInvoke("a") // still cached
	if builds != before {
		t.Fatal("recently used key was evicted")
	}
	mustInvoke("b") // must rebuild
	if builds != before+1 {
		t.Fatal("LRU key not evicted")
	}
}

// TestUndecodableSnapshotIsReplaced: a record in the store that no longer
// decodes — here the gob-encoded IBk snapshot earlier releases wrote — is
// a miss. The first acquire builds once and replaces the record with the
// current codec, so after an eviction the key restores with no build.
func TestUndecodableSnapshotIsReplaced(t *testing.T) {
	old, err := os.ReadFile("../classify/testdata/ibk-parent.gob")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("ibk", store.Meta{Algorithm: "IBk", Kind: "classifier"}, old); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cache := NewCachedBackend(1)
	cache.Durable, cache.Obs = st, reg
	var builds int64
	ibk := func() (classify.Classifier, error) {
		builds++
		k := &classify.IBk{K: 5, DistanceWeight: true}
		return k, k.Train(datagen.GaussianClusters(3, 150, 4, 2.0, 7))
	}
	if _, err := cache.Acquire("ibk", ibk); err != nil {
		t.Fatal(err)
	}
	if builds != 1 || reg.Counter("harness_store_decode_errors_total").Value() != 1 {
		t.Fatalf("first acquire: %d builds, %d decode errors; want 1 and 1",
			builds, reg.Counter("harness_store_decode_errors_total").Value())
	}
	blob, _, err := st.Get("ibk")
	if err != nil || !bytes.HasPrefix(blob, []byte("DMM1")) {
		t.Fatalf("record after rebuild starts %q (err %v), want DMM1", blob[:min(4, len(blob))], err)
	}
	if _, err := cache.Acquire("other", j48Builder(t, nil)); err != nil { // evicts ibk
		t.Fatal(err)
	}
	builds = 0
	if _, err := cache.Acquire("ibk", ibk); err != nil {
		t.Fatal(err)
	}
	if builds != 0 || reg.Counter("harness_store_restores_total").Value() != 1 {
		t.Fatalf("after eviction: %d builds, %d restores; want 0 and 1",
			builds, reg.Counter("harness_store_restores_total").Value())
	}
}
