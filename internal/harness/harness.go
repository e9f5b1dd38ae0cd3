// Package harness reproduces the invocation-state management experiment of
// §4.5. The paper found that the naive Web Services deployment paid a
// "significant performance penalty" on repeated invocations: each call
// rebuilt the algorithm object from its serialised state on disk and
// re-serialised it on completion. The fix was "a harness ... that
// maintained an algorithm instance object in memory", preventing the
// infrastructure from serialising the object after every invocation.
//
// Backend abstracts the two strategies: SerialisingBackend is the naive
// per-call round-trip through the disk store, CachedBackend is the paper's
// in-memory harness (an LRU instance pool). The benchmark harness measures
// both over the same workload.
package harness

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/store"
)

var harnessLog = obs.L("harness")

// Builder constructs (typically: trains) a fresh algorithm instance. It is
// invoked only when no prior state exists for the key.
type Builder func() (classify.Classifier, error)

// Backend manages algorithm instances across invocations.
type Backend interface {
	// Acquire returns the instance for key, creating it via build on first
	// use.
	Acquire(key string, build Builder) (classify.Classifier, error)
	// Release signals invocation completion, giving the backend the chance
	// to persist or retain state.
	Release(key string, c classify.Classifier) error
	// Invocations returns the number of completed Acquire/Release cycles.
	Invocations() int64
}

// SerialisingBackend is the naive deployment: every Acquire deserialises
// the instance from the disk store (building it first if absent), and every
// Release serialises it back — exactly the per-invocation cost the paper
// measured.
type SerialisingBackend struct {
	Store *model.Store

	mu     sync.Mutex
	calls  int64
	builds int64
}

// Acquire implements Backend.
func (b *SerialisingBackend) Acquire(key string, build Builder) (classify.Classifier, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, err := b.Store.Load(key)
	if err == nil {
		return c, nil
	}
	c, err = build()
	if err != nil {
		return nil, fmt.Errorf("harness: building instance %q: %w", key, err)
	}
	b.builds++
	obs.Default.Counter("harness_builds_total").Inc()
	if err := b.Store.Save(key, c); err != nil {
		return nil, err
	}
	return c, nil
}

// Builds returns how many times Acquire invoked a builder.
func (b *SerialisingBackend) Builds() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.builds
}

// Release implements Backend: the state is serialised back to disk.
func (b *SerialisingBackend) Release(key string, c classify.Classifier) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	return b.Store.Save(key, c)
}

// Invocations implements Backend.
func (b *SerialisingBackend) Invocations() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls
}

// CachedBackend is the paper's harness: instances stay in memory between
// invocations, bounded by an LRU pool.
//
// With Durable set, the pool demotes to the memory tier of a two-level
// read-through hierarchy over the content-addressed artifact store: a
// memory miss consults the store before building, and every freshly built
// instance is snapshotted into the store — so an eviction (or a process
// death, when the store directory is shared between replicas) costs a
// deserialisation, never a retrain.
type CachedBackend struct {
	// MaxEntries bounds the pool (0 = unbounded).
	MaxEntries int
	// Durable, when set, is the persistent snapshot tier under the pool.
	Durable *store.Store
	// Obs receives the pool's hit/miss/eviction metrics; nil means
	// obs.Default.
	Obs *obs.Registry

	mu      sync.Mutex // guards ll, items and flights
	ll      *list.List // front = most recent
	items   map[string]*list.Element
	flights map[string]*flight
	calls   atomic.Int64
	builds  atomic.Int64
}

// flight is one in-progress restore or build of a key. c and err are
// written before done is closed and read only after it is.
type flight struct {
	done chan struct{}
	c    classify.Classifier
	err  error
}

func (b *CachedBackend) obsReg() *obs.Registry {
	if b.Obs != nil {
		return b.Obs
	}
	return obs.Default
}

type cacheItem struct {
	key string
	c   classify.Classifier
}

// NewCachedBackend returns a harness with the given pool bound.
func NewCachedBackend(maxEntries int) *CachedBackend {
	return &CachedBackend{MaxEntries: maxEntries,
		ll: list.New(), items: map[string]*list.Element{}, flights: map[string]*flight{}}
}

// Acquire implements Backend. A hit touches only the LRU. The first miss
// on a key leads a flight: it restores or builds (and snapshots) outside
// the lock, and returns once the instance is pooled and any snapshot is
// durable. Later misses on the key wait for the flight and share its
// outcome, except a cancellation or deadline error, which belonged to the
// leader's context: those callers retry with their own builder.
func (b *CachedBackend) Acquire(key string, build Builder) (classify.Classifier, error) {
	reg := b.obsReg()
	for {
		b.mu.Lock()
		if b.ll == nil {
			b.ll = list.New()
			b.items = map[string]*list.Element{}
			b.flights = map[string]*flight{}
		}
		if el, ok := b.items[key]; ok {
			b.ll.MoveToFront(el)
			c := el.Value.(*cacheItem).c
			b.mu.Unlock()
			reg.Counter("harness_cache_hits_total").Inc()
			return c, nil
		}
		f, joined := b.flights[key]
		if !joined {
			f = &flight{done: make(chan struct{})}
			b.flights[key] = f
		}
		b.mu.Unlock()
		reg.Counter("harness_cache_misses_total").Inc()
		if !joined {
			return b.lead(reg, key, build, f)
		}
		began := time.Now()
		<-f.done
		reg.Histogram("harness_acquire_wait_ms").Observe(float64(time.Since(began).Microseconds()) / 1e3)
		if !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded) {
			return f.c, f.err
		}
	}
}

// lead runs flight f for key: the miss path outside the lock, then, under
// it, pools a success (evicting past the bound) and retires the flight.
// The publish is deferred so a panicking builder still releases the
// waiters, with f's preset error.
func (b *CachedBackend) lead(reg *obs.Registry, key string, build Builder, f *flight) (classify.Classifier, error) {
	f.err = fmt.Errorf("harness: building instance %q panicked", key)
	defer func() {
		b.mu.Lock()
		delete(b.flights, key)
		if f.err == nil {
			b.items[key] = b.ll.PushFront(&cacheItem{key: key, c: f.c})
			if b.MaxEntries > 0 && b.ll.Len() > b.MaxEntries {
				oldest := b.ll.Back()
				b.ll.Remove(oldest)
				delete(b.items, oldest.Value.(*cacheItem).key)
				reg.Counter("harness_cache_evictions_total").Inc()
			}
			reg.Gauge("harness_cache_entries").Set(int64(b.ll.Len()))
		}
		b.mu.Unlock()
		close(f.done)
	}()
	f.c, f.err = b.load(reg, key, build)
	return f.c, f.err
}

// load is the miss path: read through the durable snapshot store (which
// another replica may have populated), else build and snapshot.
func (b *CachedBackend) load(reg *obs.Registry, key string, build Builder) (classify.Classifier, error) {
	if b.Durable != nil {
		if blob, meta, err := b.Durable.Get(key); err == nil {
			c, err := model.Unmarshal(blob)
			if err == nil {
				reg.Counter("harness_store_restores_total").Inc()
				return c, nil
			}
			// An undecodable snapshot (older codec, corrupt blob) is a
			// miss; drop it, or the rebuild's Put would dedup against it.
			reg.Counter("harness_store_decode_errors_total").Inc()
			harnessLog.Warn(context.Background(), "snapshot undecodable",
				"key", key, "algorithm", meta.Algorithm, "cause", err)
			if err := b.Durable.Delete(key); err != nil {
				reg.Counter("harness_snapshot_errors_total").Inc()
			}
		}
	}
	c, err := build()
	if err != nil {
		return nil, fmt.Errorf("harness: building instance %q: %w", key, err)
	}
	b.builds.Add(1)
	reg.Counter("harness_builds_total").Inc()
	if b.Durable != nil {
		b.snapshot(reg, key, c)
	}
	return c, nil
}

// Release implements Backend: a no-op beyond accounting — the instance
// stays live in memory, which is the entire point of the harness.
func (b *CachedBackend) Release(key string, c classify.Classifier) error {
	b.calls.Add(1)
	return nil
}

// snapshot persists a freshly built instance into the durable store,
// best-effort: a model without a serialised form stays memory-only (the
// §4.5 behaviour), it does not fail the invocation. It runs inside the
// flight, so the snapshot is durable before Acquire returns.
func (b *CachedBackend) snapshot(reg *obs.Registry, key string, c classify.Classifier) {
	began := time.Now()
	blob, err := model.Marshal(c)
	if err != nil {
		reg.Counter("harness_snapshot_skipped_total").Inc()
		return
	}
	if err := b.Durable.Put(key, store.Meta{Algorithm: c.Name(), Kind: "classifier"}, blob); err != nil {
		reg.Counter("harness_snapshot_errors_total").Inc()
		return
	}
	reg.Histogram("snapshot_ms").Observe(float64(time.Since(began).Microseconds()) / 1e3)
}

// Invocations implements Backend.
func (b *CachedBackend) Invocations() int64 { return b.calls.Load() }

// Builds returns how many times Acquire had to invoke a builder — i.e.
// actually (re)train — instead of serving the instance from memory or a
// snapshot tier. The cross-replica failover drill asserts this stays 0 on
// the replica that resumes a session it never trained.
func (b *CachedBackend) Builds() int64 { return b.builds.Load() }

// Len returns the number of pooled instances.
func (b *CachedBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ll == nil {
		return 0
	}
	return b.ll.Len()
}

// Invoke runs one classify invocation against a backend: acquire the
// instance for key (building it with build on first use), apply fn,
// release. This is the repeated-invocation unit of the §4.5 experiment.
func Invoke(b Backend, key string, build Builder, fn func(classify.Classifier) error) error {
	return InvokeContext(context.Background(), b, key, build, fn)
}

// InvokeContext is Invoke with cooperative cancellation: the context is
// checked before acquiring and before applying fn, so a caller whose
// deadline has already passed never starts (or re-uses) a build. The
// builder itself is expected to honour ctx when training is long-running
// (see services.TrainBuilderContext).
func InvokeContext(ctx context.Context, b Backend, key string, build Builder, fn func(classify.Classifier) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c, err := b.Acquire(key, build)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := fn(c); err != nil {
		return err
	}
	return b.Release(key, c)
}
