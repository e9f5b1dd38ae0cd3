package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

func blobFor(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i%26)}, 40+i%7)
}

// TestDeleteAndDeadBytes: tombstones kill keys, account dead bytes, and
// survive reopen without resurrection.
func TestDeleteAndDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		put(t, s, fmt.Sprintf("k%d", i), blobFor(i))
	}
	if s.DeadBytes() != 0 {
		t.Fatalf("dead bytes before delete = %d", s.DeadBytes())
	}
	if err := s.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("absent"); err != nil {
		t.Fatal(err)
	}
	if s.Has("k1") || s.Has("k3") {
		t.Fatal("deleted keys still present")
	}
	if _, _, err := s.Get("k1"); err == nil {
		t.Fatal("Get of deleted key succeeded")
	}
	if s.DeadBytes() == 0 {
		t.Fatal("deletes accounted no dead bytes")
	}
	if got := s.Stats().Deletes; got != 2 {
		t.Fatalf("Deletes = %d, want 2", got)
	}
	s.Close()

	// Reopen: the tombstones must hold even though the segment scan sees
	// the original records.
	s2, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Has("k1") || s2.Has("k3") {
		t.Fatal("delete did not survive reopen")
	}
	if s2.Len() != 4 {
		t.Fatalf("Len after reopen = %d, want 4", s2.Len())
	}
	if s2.DeadBytes() == 0 {
		t.Fatal("reopened store lost dead-byte accounting")
	}
}

// TestCompactReclaims: compaction removes tombstoned and superseded
// records, zeroes dead bytes, and every live key stays readable — across
// reopen too.
func TestCompactReclaims(t *testing.T) {
	dir := t.TempDir()
	s, err := openWithSegment(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		put(t, s, k, blobFor(i))
		want[k] = blobFor(i)
	}
	// A second handle that never refreshed writes the same keys again:
	// the cross-replica duplicate race that creates superseded records.
	s.Close()
	a, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k4", "k5"} {
		if err := a.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	b.Close()

	if a.DeadBytes() == 0 {
		t.Fatal("no dead bytes to reclaim")
	}
	st, err := a.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReclaimedBytes <= 0 {
		t.Fatalf("ReclaimedBytes = %d, want > 0", st.ReclaimedBytes)
	}
	if st.Generation != 1 || a.Generation() != 1 {
		t.Fatalf("generation = %d/%d, want 1", st.Generation, a.Generation())
	}
	if a.DeadBytes() != 0 {
		t.Fatalf("dead bytes after compact = %d", a.DeadBytes())
	}
	for k, blob := range want {
		got, _, err := a.Get(k)
		if err != nil {
			t.Fatalf("Get(%s) after compact: %v", k, err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("Get(%s) content changed after compact", k)
		}
	}
	// Old segments and the old index are gone.
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.dat")); len(segs) != 0 {
		t.Fatalf("old segments survive compaction: %v", segs)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.jsonl")); !os.IsNotExist(err) {
		t.Fatal("legacy index.jsonl survives compaction")
	}
	a.Close()

	s2, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("Len after reopen = %d, want %d", s2.Len(), len(want))
	}
	for k, blob := range want {
		got, _, err := s2.Get(k)
		if err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("Get(%s) after reopen: %v", k, err)
		}
	}
	// Writes keep working in the new generation.
	put(t, s2, "post", []byte("post-compact"))
	if got, _, err := s2.Get("post"); err != nil || string(got) != "post-compact" {
		t.Fatalf("post-compact Put/Get: %v", err)
	}
}

// TestCompactExpiresByAge: a GC policy's MaxAge retires old records.
func TestCompactExpiresByAge(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	old := Meta{Algorithm: "J48", Created: time.Now().Add(-time.Hour).Unix()}
	if err := s.Put("old", old, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	put(t, s, "fresh", []byte("fresh"))
	st, ran, err := s.MaybeCompact(GCPolicy{MaxAge: time.Minute})
	if err != nil || !ran {
		t.Fatalf("MaybeCompact: ran=%v err=%v", ran, err)
	}
	if st.ExpiredRecords != 1 {
		t.Fatalf("ExpiredRecords = %d, want 1", st.ExpiredRecords)
	}
	if s.Has("old") || !s.Has("fresh") {
		t.Fatal("age expiry kept/killed the wrong key")
	}
}

// TestMaybeCompact: the policy gates compaction.
func TestMaybeCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put(t, s, "a", blobFor(0))
	put(t, s, "b", blobFor(1))
	if _, ran, err := s.MaybeCompact(GCPolicy{MaxDeadBytes: 1}); err != nil || ran {
		t.Fatalf("compacted with zero dead bytes (ran=%v err=%v)", ran, err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	st, ran, err := s.MaybeCompact(GCPolicy{MaxDeadBytes: 1})
	if err != nil || !ran {
		t.Fatalf("MaybeCompact did not run (err=%v)", err)
	}
	if st.ReclaimedBytes <= 0 {
		t.Fatalf("ReclaimedBytes = %d", st.ReclaimedBytes)
	}
	if _, ran, _ := s.MaybeCompact(GCPolicy{MaxDeadBytes: 1}); ran {
		t.Fatal("back-to-back MaybeCompact ran again with nothing dead")
	}
}

// TestMaybeCompactSkipsWhenLocked: a due sweep whose exclusive lock is
// held by another open of the same directory skips without error and
// counts the skip; it compacts once the lock is released.
func TestMaybeCompactSkipsWhenLocked(t *testing.T) {
	dir := t.TempDir()
	reg := testObs()
	s, err := Open(dir, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put(t, s, "a", blobFor(0))
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	holder, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.flock(syscall.LOCK_EX); err != nil {
		t.Fatal(err)
	}
	_, ran, err := s.MaybeCompact(GCPolicy{MaxDeadBytes: 1})
	if err != nil || ran {
		t.Fatalf("MaybeCompact under a held lock: ran=%v err=%v, want false, nil", ran, err)
	}
	if got := reg.Counter("store_gc_skipped_total").Value(); got != 1 {
		t.Fatalf("store_gc_skipped_total = %d, want 1", got)
	}
	holder.funlock()
	if _, ran, err := s.MaybeCompact(GCPolicy{MaxDeadBytes: 1}); err != nil || !ran {
		t.Fatalf("MaybeCompact after release: ran=%v err=%v", ran, err)
	}
}

// TestGenerationAdoption: a store that lost the compaction race adopts
// the new generation instead of serving stale offsets — on both the read
// and the write path.
func TestGenerationAdoption(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	put(t, a, "x", []byte("xval"))
	if got, _, err := b.Get("x"); err != nil || string(got) != "xval" {
		t.Fatalf("b.Get(x) pre-compact: %v", err)
	}
	if err := a.Delete("zzz"); err != nil { // no-op; just warms a's view
		t.Fatal(err)
	}
	put(t, a, "y", []byte("yval"))
	if _, err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	// b still holds generation-0 offsets; both paths must recover.
	if got, _, err := b.Get("x"); err != nil || string(got) != "xval" {
		t.Fatalf("b.Get(x) post-compact: %v", err)
	}
	if err := b.Put("z", Meta{}, []byte("zval")); err != nil {
		t.Fatalf("b.Put post-compact: %v", err)
	}
	if b.Generation() != 1 {
		t.Fatalf("b generation = %d, want 1", b.Generation())
	}
	if b.Stats().GenResets == 0 {
		t.Fatal("b never counted a generation reset")
	}
	if got, _, err := a.Get("z"); err != nil || string(got) != "zval" {
		t.Fatalf("a.Get(z): %v", err)
	}
}

// TestConcurrentPutDeleteCompact races two writers (one deleting) against
// a compactor, all through separate Store handles on one directory — the
// multi-process topology, in-process so the race detector can see it.
func TestConcurrentPutDeleteCompact(t *testing.T) {
	dir := t.TempDir()
	openStore := func() *Store {
		s, err := openWithSegment(dir, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := openStore(), openStore(), openStore()
	defer a.Close()
	defer b.Close()
	defer c.Close()

	const iters = 60
	var wg sync.WaitGroup
	wg.Add(3)
	errs := make(chan error, 3*iters)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := a.Put(fmt.Sprintf("a%d", i), Meta{}, blobFor(i)); err != nil {
				errs <- err
			}
			if err := a.Put("shared", Meta{}, []byte("shared-blob")); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := b.Put(fmt.Sprintf("b%d", i), Meta{}, blobFor(i)); err != nil {
				errs <- err
			}
			if err := b.Put("shared", Meta{}, []byte("shared-blob")); err != nil {
				errs <- err
			}
			if i%10 == 9 {
				if err := b.Delete("shared"); err != nil {
					errs <- err
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := c.Compact(); err != nil {
				errs <- fmt.Errorf("compact: %w", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A fresh handle sees every unique key with the right contents.
	f := openStore()
	defer f.Close()
	for i := 0; i < iters; i++ {
		for _, k := range []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)} {
			got, _, err := f.Get(k)
			if err != nil {
				t.Fatalf("Get(%s): %v", k, err)
			}
			if !bytes.Equal(got, blobFor(i)) {
				t.Fatalf("Get(%s): wrong content", k)
			}
		}
	}
	if f.DeadBytes() < 0 || f.Bytes() < f.DeadBytes() {
		t.Fatalf("inconsistent accounting: bytes=%d dead=%d", f.Bytes(), f.DeadBytes())
	}
}
