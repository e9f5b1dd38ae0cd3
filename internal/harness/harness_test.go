package harness

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/model"
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
	if ser.Invocations() != 5 || cache.Invocations() != 5 {
		t.Fatalf("invocation counts: %d / %d", ser.Invocations(), cache.Invocations())
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
	store, _ := model.NewStore(t.TempDir())
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
	ids, _ := store.List()
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
