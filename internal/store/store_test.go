package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/obs"
)

func testObs() *obs.Registry { return obs.NewRegistry() }

func put(t *testing.T, s *Store, key string, blob []byte) {
	t.Helper()
	if err := s.Put(key, Meta{Algorithm: "J48", Kind: "classifier"}, blob); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	reg := testObs()
	s, err := Open(t.TempDir(), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := []byte("trained model bytes")
	put(t, s, "k1", blob)
	got, meta, err := s.Get("k1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) || meta.Algorithm != "J48" || meta.Kind != "classifier" {
		t.Fatalf("Get = %q meta %+v", got, meta)
	}
	if meta.Created == 0 {
		t.Fatal("Created not stamped")
	}
	if _, _, err := s.Get("absent"); err == nil {
		t.Fatal("Get(absent) succeeded")
	}
	if c := reg.Snapshot().Counters; c["store_hits_total"] != 1 || c["store_misses_total"] != 1 || c["store_puts_total"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestContentAddressedDupPut(t *testing.T) {
	reg := testObs()
	s, err := Open(t.TempDir(), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put(t, s, "k", []byte("v"))
	put(t, s, "k", []byte("v"))
	if c := reg.Snapshot().Counters; c["store_puts_total"] != 1 || c["store_dup_puts_total"] != 1 {
		t.Fatalf("counters = %v", c)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		put(t, s, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100+i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("Len after reopen = %d", s2.Len())
	}
	for i := 0; i < 5; i++ {
		got, _, err := s2.Get(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 100+i)) {
			t.Fatalf("k%d corrupted", i)
		}
	}
}

// TestTornSegmentTail is the crash drill: a writer killed mid-record
// leaves a torn tail. Recovery must drop exactly that record and keep
// every earlier one readable, and the reopened store must keep working.
func TestTornSegmentTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "intact-1", bytes.Repeat([]byte("a"), 500))
	put(t, s, "intact-2", bytes.Repeat([]byte("b"), 500))
	put(t, s, "torn", bytes.Repeat([]byte("c"), 500))
	s.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.dat"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	if err := os.Truncate(segs[0], fi.Size()-250); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("Len after torn-tail recovery = %d, want 2", s2.Len())
	}
	if _, _, err := s2.Get("torn"); err == nil {
		t.Fatal("torn record still served")
	}
	for _, k := range []string{"intact-1", "intact-2"} {
		if _, _, err := s2.Get(k); err != nil {
			t.Fatalf("Get(%s) after recovery: %v", k, err)
		}
	}
	// The reopened store appends to a fresh segment; writes still work.
	put(t, s2, "after-crash", []byte("x"))
	if _, _, err := s2.Get("after-crash"); err != nil {
		t.Fatal(err)
	}
}

// TestCrashBetweenSegmentAndIndex covers the other torn state: the record
// reached its segment but the index line never did. Recovery re-indexes it.
func TestCrashBetweenSegmentAndIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "indexed", []byte("aaa"))
	put(t, s, "unindexed", []byte("bbb"))
	s.Close()
	// Drop the second index line, simulating a crash after the segment
	// fsync but before the index append.
	idx, err := os.ReadFile(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(idx, []byte("\n"))
	if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), lines[0], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _, err := s2.Get("unindexed"); err != nil || !bytes.Equal(got, []byte("bbb")) {
		t.Fatalf("Get(unindexed) = %q, %v", got, err)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len after re-indexing = %d, want 2", s2.Len())
	}
}

func TestTornIndexLineSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "good", []byte("v"))
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, "index.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"half`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("Len = %d", s2.Len())
	}
	if _, _, err := s2.Get("good"); err != nil {
		t.Fatal(err)
	}
}

// TestCrossStoreVisibility is the replica scenario in miniature: two open
// stores over one directory, and a Put through one is readable through
// the other without reopening (the read-through index refresh).
func TestCrossStoreVisibility(t *testing.T) {
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
	put(t, a, "from-a", []byte("snapshot"))
	got, _, err := b.Get("from-a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("snapshot")) {
		t.Fatalf("cross-store Get = %q", got)
	}
}

// openWithSegment opens dir with segments rotated at n bytes.
func openWithSegment(dir string, n int64) (*Store, error) {
	s, err := Open(dir, WithObs(testObs()))
	if err == nil {
		s.maxSegment = n
	}
	return s, err
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := openWithSegment(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		put(t, s, fmt.Sprintf("r%d", i), bytes.Repeat([]byte("z"), 200))
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.dat"))
	if len(segs) < 3 {
		t.Fatalf("rotation produced %d segments, want >= 3", len(segs))
	}
	s2, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 6; i++ {
		if _, _, err := s2.Get(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatalf("Get(r%d) across segments: %v", i, err)
		}
	}
}

// TestConcurrentPutGet hammers one store from many goroutines under
// -race: concurrent Put of distinct and duplicate keys plus concurrent
// Get of everything.
func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir(), WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("k-%d", i) // heavy duplicate pressure
				if err := s.Put(key, Meta{}, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if got, _, err := s.Get(key); err != nil || string(got) != key {
					t.Errorf("Get(%s) = %q, %v", key, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != perWorker {
		t.Fatalf("Len = %d, want %d", s.Len(), perWorker)
	}
}

func TestKeyIncludesDatasetDigest(t *testing.T) {
	weather := datagen.Weather()
	cancer := datagen.BreastCancer()
	opts := map[string]string{"confidence": "0.25"}
	k1 := Key("J48", opts, dataset.Digest(weather), "play")
	k2 := Key("J48", opts, dataset.Digest(cancer), "play")
	if k1 == k2 {
		t.Fatal("same algorithm+options over different datasets collided")
	}
	if k1 != Key("J48", map[string]string{"confidence": "0.25"}, dataset.Digest(weather), "play") {
		t.Fatal("Key is not deterministic")
	}
	if Key("J48", nil, dataset.Digest(weather), "play") == Key("J48", nil, dataset.Digest(weather), "outlook") {
		t.Fatal("attribute not part of the key")
	}
}

func TestDatasetDigestCanonical(t *testing.T) {
	a := datagen.Weather()
	b := datagen.Weather()
	if dataset.Digest(a) != dataset.Digest(b) {
		t.Fatal("identical datasets digest differently")
	}
	b.Instances[0].Values[0] = b.Instances[0].Values[0] + 1
	if dataset.Digest(a) == dataset.Digest(b) {
		t.Fatal("cell edit did not change the digest")
	}
}

func TestListOrderAndMeta(t *testing.T) {
	s, err := Open(t.TempDir(), WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put(t, s, "first", []byte("1"))
	put(t, s, "second", []byte("22"))
	entries := s.List()
	if len(entries) != 2 || entries[0].Key != "first" || entries[1].Key != "second" {
		t.Fatalf("List = %+v", entries)
	}
	if entries[1].Size != 2 || entries[0].Meta.Algorithm != "J48" {
		t.Fatalf("List meta = %+v", entries)
	}
}

func TestInvalidKeys(t *testing.T) {
	s, err := Open(t.TempDir(), WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []string{"", "with\nnewline"} {
		if err := s.Put(k, Meta{}, []byte("v")); err == nil {
			t.Fatalf("Put(%q) accepted", k)
		}
	}
}

// TestPutCopiesBlobOnce: Put builds each record in one buffer, so a
// snapshot-sized blob is copied once per write, not once into a CRC body
// and again into the record.
func TestPutCopiesBlobOnce(t *testing.T) {
	s, err := Open(t.TempDir(), WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte{0xA5}, 150<<10)
	n := 0
	next := func() {
		n++
		put(t, s, fmt.Sprintf("k%03d", n), blob)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, next)
	runtime.ReadMemStats(&after)
	if perPut := (after.TotalAlloc - before.TotalAlloc) / uint64(n); perPut > uint64(len(blob))+16<<10 {
		t.Errorf("Put allocated %d bytes per %d-byte blob, want one copy", perPut, len(blob))
	}
	if allocs > 16 { // 11 in a plain build; the race detector adds a few
		t.Errorf("Put made %v allocations, want at most 16", allocs)
	}
}
