package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/obs"
	"repro/internal/store"
)

// deadline bounds every wait in these tests: far above any honest latency,
// far below the test binary's timeout.
const deadline = 10 * time.Second

// gate is a builder that blocks until opened, so a test can hold a flight
// open. entered is closed when the builder starts. A failing test opens it
// on cleanup, so no goroutine is left blocked behind it.
type gate struct {
	entered, release  chan struct{}
	enterOnce, opened sync.Once
	c                 classify.Classifier
	err               error
}

func newGate(t *testing.T, c classify.Classifier, err error) *gate {
	g := &gate{entered: make(chan struct{}), release: make(chan struct{}), c: c, err: err}
	t.Cleanup(g.open)
	return g
}

func (g *gate) open() { g.opened.Do(func() { close(g.release) }) }

func (g *gate) build() (classify.Classifier, error) {
	g.enterOnce.Do(func() { close(g.entered) })
	<-g.release
	return g.c, g.err
}

// within runs fn and fails the test if it has not returned by the deadline.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("%s still blocked after %v", what, deadline)
	}
}

// waitFor spins until cond holds, yielding between checks.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(stop) {
			t.Fatalf("%s: not reached after %v", what, deadline)
		}
		runtime.Gosched()
	}
}

func trained(t *testing.T) classify.Classifier {
	t.Helper()
	c, err := j48Builder(t, nil)()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBlockedBuildDoesNotDelayOtherKeys: while one key's builder is
// stuck, a memory hit on another key and a restore of a third from a real
// store directory both complete.
func TestBlockedBuildDoesNotDelayOtherKeys(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seed := NewCachedBackend(4)
	seed.Durable, seed.Obs = st, obs.NewRegistry()
	if _, err := seed.Acquire("stored", j48Builder(t, nil)); err != nil {
		t.Fatal(err)
	}

	b := NewCachedBackend(4)
	b.Durable, b.Obs = st, obs.NewRegistry()
	if _, err := b.Acquire("hot", j48Builder(t, nil)); err != nil {
		t.Fatal(err)
	}
	g := newGate(t, trained(t), nil)
	slow := make(chan error, 1)
	go func() {
		_, err := b.Acquire("slow", g.build)
		slow <- err
	}()
	defer func() {
		g.open()
		if err := <-slow; err != nil {
			t.Errorf("slow key: %v", err)
		}
	}()
	<-g.entered

	noBuild := func() (classify.Classifier, error) { return nil, errors.New("must not build") }
	within(t, "hit on another key", func() {
		if _, err := b.Acquire("hot", noBuild); err != nil {
			t.Error(err)
		}
	})
	within(t, "restore of another key", func() {
		if _, err := b.Acquire("stored", noBuild); err != nil {
			t.Error(err)
		}
	})
	if got := b.Obs.Counter("harness_store_restores_total").Value(); got != 1 {
		t.Fatalf("restores = %d, want 1", got)
	}
}

// TestColdKeySharesOneBuild: 16 concurrent misses on one cold key run one
// build, all get the same instance, and the 15 joiners record their wait.
func TestColdKeySharesOneBuild(t *testing.T) {
	const n = 16
	b := NewCachedBackend(4)
	b.Obs = obs.NewRegistry()
	g := newGate(t, trained(t), nil)
	got := make([]classify.Classifier, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := b.Acquire("cold", g.build)
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}(i)
	}
	misses := b.Obs.Counter("harness_cache_misses_total")
	waitFor(t, "every caller missed", func() bool { return misses.Value() == n })
	g.open()
	within(t, "all callers", wg.Wait)
	if n := b.Obs.Counter("harness_builds_total").Value(); n != 1 {
		t.Fatalf("harness_builds_total = %d, want 1", n)
	}
	for i, c := range got {
		if c != g.c {
			t.Fatalf("caller %d got %p, want the one built instance %p", i, c, g.c)
		}
	}
	if waits := b.Obs.Snapshot().Histograms["harness_acquire_wait_ms"].Count; waits != n-1 {
		t.Fatalf("wait observations = %d, want %d", waits, n-1)
	}
}

// TestBuildErrorReachesEveryWaiter: a failed flight fails every caller that
// joined it, is not pooled, and the next Acquire builds afresh.
func TestBuildErrorReachesEveryWaiter(t *testing.T) {
	const n = 8
	b := NewCachedBackend(4)
	b.Obs = obs.NewRegistry()
	boom := errors.New("boom")
	g := newGate(t, nil, boom)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Acquire("k", g.build); !errors.Is(err, boom) {
				t.Errorf("waiter got %v, want %v", err, boom)
			}
		}()
	}
	misses := b.Obs.Counter("harness_cache_misses_total")
	waitFor(t, "every caller missed", func() bool { return misses.Value() == n })
	g.open()
	within(t, "all callers", wg.Wait)
	if built := b.Obs.Counter("harness_builds_total").Value(); b.Len() != 0 || built != 0 {
		t.Fatalf("after failed flight: Len %d, builds %d; want 0 and 0", b.Len(), built)
	}
	var builds int64
	if _, err := b.Acquire("k", j48Builder(t, &builds)); err != nil || builds != 1 {
		t.Fatalf("next acquire: err %v, %d builds; want a fresh build", err, builds)
	}
}

// TestLeaderCancelledWaitersRetry: a flight that fails with the leader's
// own cancellation is not inherited; its waiters retry with their own
// builders and get a model from one new build.
func TestLeaderCancelledWaitersRetry(t *testing.T) {
	const n = 6
	b := NewCachedBackend(4)
	b.Obs = obs.NewRegistry()
	g := newGate(t, nil, fmt.Errorf("training: %w", context.Canceled))
	leader := make(chan error, 1)
	go func() {
		_, err := b.Acquire("k", g.build)
		leader <- err
	}()
	<-g.entered
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c, err := b.Acquire("k", j48Builder(t, nil)); err != nil || c == nil {
				t.Errorf("waiter: %v, %v; want a model", c, err)
			}
		}()
	}
	misses := b.Obs.Counter("harness_cache_misses_total")
	waitFor(t, "every waiter joined", func() bool { return misses.Value() == n+1 })
	g.open()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want its own cancellation", err)
	}
	within(t, "waiters", wg.Wait)
	if built := b.Obs.Counter("harness_builds_total").Value(); built != 1 || b.Len() != 1 {
		t.Fatalf("builds %d, Len %d; want 1 and 1", built, b.Len())
	}
}

// TestPanickingBuilderReleasesWaiters: a builder panic reaches its own
// caller, its waiters get an error instead of hanging, and the key is
// free to build again.
func TestPanickingBuilderReleasesWaiters(t *testing.T) {
	b := NewCachedBackend(4)
	b.Obs = obs.NewRegistry()
	g := newGate(t, nil, nil)
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		_, _ = b.Acquire("k", func() (classify.Classifier, error) {
			g.build()
			panic("builder bug")
		})
	}()
	<-g.entered
	waiter := make(chan error, 1)
	go func() {
		_, err := b.Acquire("k", j48Builder(t, nil))
		waiter <- err
	}()
	misses := b.Obs.Counter("harness_cache_misses_total")
	waitFor(t, "waiter joined", func() bool { return misses.Value() == 2 })
	g.open()
	if p := <-leader; p != "builder bug" {
		t.Fatalf("leader recovered %v, want the builder's panic", p)
	}
	within(t, "waiter", func() {
		if err := <-waiter; err == nil {
			t.Error("waiter of a panicked flight got no error")
		}
	})
	_, err := b.Acquire("k", j48Builder(t, nil))
	if built := b.Obs.Counter("harness_builds_total").Value(); err != nil || built != 1 {
		t.Fatalf("after the panic: err %v, builds %d; want a fresh build", err, built)
	}
}

// TestEvictionDuringFlight: keys pooled and evicted while another key's
// flight is open keep the pool within its bound, before and after the
// flight lands.
func TestEvictionDuringFlight(t *testing.T) {
	b := NewCachedBackend(2)
	b.Obs = obs.NewRegistry()
	g := newGate(t, trained(t), nil)
	slow := make(chan error, 1)
	go func() {
		_, err := b.Acquire("slow", g.build)
		slow <- err
	}()
	<-g.entered
	build := j48Builder(t, nil)
	within(t, "acquires on other keys", func() {
		for _, key := range []string{"a", "b", "c", "d"} {
			if _, err := b.Acquire(key, build); err != nil {
				t.Error(err)
			}
			if b.Len() > b.MaxEntries {
				t.Errorf("after %s: Len %d > %d", key, b.Len(), b.MaxEntries)
			}
		}
	})
	g.open()
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if b.Len() > b.MaxEntries {
		t.Fatalf("after the flight landed: Len %d > %d", b.Len(), b.MaxEntries)
	}
	if _, err := b.Acquire("slow", func() (classify.Classifier, error) {
		return nil, errors.New("must not build")
	}); err != nil {
		t.Fatalf("landed key not pooled: %v", err)
	}
}

// BenchmarkCachedBackendContended: parallel hits on one key while a
// background caller keeps another key's 1 ms builder in flight. A hit that
// queued behind the build would cost about a millisecond.
func BenchmarkCachedBackendContended(b *testing.B) {
	c, err := classify.New("ZeroR")
	if err != nil {
		b.Fatal(err)
	}
	cache := NewCachedBackend(0)
	cache.Obs = obs.NewRegistry()
	build := func() (classify.Classifier, error) { return c, nil }
	if _, err := cache.Acquire("hot", build); err != nil {
		b.Fatal(err)
	}
	sleepy := func() (classify.Classifier, error) {
		time.Sleep(time.Millisecond)
		return c, nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cache.Acquire(fmt.Sprint("cold", i), sleepy); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cache.Acquire("hot", build); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}
