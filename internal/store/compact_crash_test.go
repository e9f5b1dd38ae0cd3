package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// copyDir clones every regular file in src into a fresh dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// buildDirtyDir populates dir with a store containing live keys,
// cross-handle superseded duplicates, and tombstones — everything a
// compaction has to get right. Returns the expected live contents and
// the deleted keys.
func buildDirtyDir(t *testing.T, dir string) (map[string][]byte, []string) {
	t.Helper()
	a, err := openWithSegment(dir, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatal(err)
	}
	live := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		blob := bytes.Repeat([]byte{byte('A' + i)}, 25+i)
		if err := a.Put(k, Meta{Algorithm: "J48", Kind: "classifier"}, blob); err != nil {
			t.Fatal(err)
		}
		live[k] = blob
	}
	// b opened before a's writes, so its view is stale: these Puts write
	// duplicate records — the superseded-bytes case.
	for _, k := range []string{"k0", "k3"} {
		if err := b.Put(k, Meta{Algorithm: "J48", Kind: "classifier"}, live[k]); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	deleted := []string{"k2", "k5"}
	for _, k := range deleted {
		if err := a.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(live, k)
	}
	a.Close()
	return live, deleted
}

// verifyStore opens dir and asserts every live key reads back intact,
// every deleted key stays dead, and the store still accepts writes.
func verifyStore(t *testing.T, dir, state string, live map[string][]byte, deleted []string) {
	t.Helper()
	s, err := Open(dir, WithObs(testObs()))
	if err != nil {
		t.Fatalf("[%s] Open: %v", state, err)
	}
	defer s.Close()
	if s.Len() != len(live) {
		t.Fatalf("[%s] Len = %d, want %d", state, s.Len(), len(live))
	}
	for k, want := range live {
		got, _, err := s.Get(k)
		if err != nil {
			t.Fatalf("[%s] Get(%s): %v", state, k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("[%s] Get(%s): content corrupted", state, k)
		}
	}
	for _, k := range deleted {
		if s.Has(k) {
			t.Fatalf("[%s] deleted key %s resurrected", state, k)
		}
	}
	if err := s.Put("probe", Meta{}, []byte("probe")); err != nil {
		t.Fatalf("[%s] post-recovery Put: %v", state, err)
	}
	if got, _, err := s.Get("probe"); err != nil || string(got) != "probe" {
		t.Fatalf("[%s] post-recovery Get(probe): %v", state, err)
	}
}

// TestCompactCrashAtEveryByte simulates a SIGKILL at every byte boundary
// of every file an in-progress compaction writes — the compaction output
// segments, the rewritten index, the manifest, and the CURRENT swap —
// and asserts recovery never loses a live record, never resurrects a
// deleted one, and leaves a store that still accepts writes.
//
// The artifact bytes come from a real compaction run on an identical
// copy of the directory, so every simulated crash state is byte-exact.
func TestCompactCrashAtEveryByte(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src")
	live, deleted := buildDirtyDir(t, src)

	// Run the real compaction on a copy to capture its exact artifacts.
	ref := filepath.Join(t.TempDir(), "ref")
	copyDir(t, src, ref)
	rs, err := openWithSegment(ref, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Compact(); err != nil {
		t.Fatal(err)
	}
	rs.Close()

	type artifact struct {
		name   string // file the compactor creates
		data   []byte
		atomic bool // written as name.tmp then renamed (manifest, CURRENT)
	}
	var arts []artifact
	csegs, _ := filepath.Glob(filepath.Join(ref, "cseg-1-*.dat"))
	sort.Strings(csegs)
	if len(csegs) < 2 {
		t.Fatalf("want multiple compaction segments, got %d", len(csegs))
	}
	for _, p := range csegs {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		arts = append(arts, artifact{name: filepath.Base(p), data: b})
	}
	idxB, err := os.ReadFile(filepath.Join(ref, "index-1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	arts = append(arts, artifact{name: "index-1.jsonl", data: idxB})
	// The manifest is deleted on success; reconstruct it the way
	// compactLocked builds it (sorted old segments + old indexes).
	srcSegs, _ := filepath.Glob(filepath.Join(src, "seg-*.dat"))
	m := gcManifest{Gen: 1, DropIndexes: []string{"index.jsonl"}}
	for _, p := range srcSegs {
		m.DropSegments = append(m.DropSegments, filepath.Base(p))
	}
	sort.Strings(m.DropSegments)
	mB, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	arts = append(arts, artifact{name: manifestFile, data: mB, atomic: true})
	curB, err := os.ReadFile(filepath.Join(ref, currentFile))
	if err != nil {
		t.Fatal(err)
	}
	arts = append(arts, artifact{name: currentFile, data: curB, atomic: true})

	work := t.TempDir()
	states := 0
	for i, art := range arts {
		for cut := 0; cut <= len(art.data); cut++ {
			// Before the CURRENT rename lands, the old generation must
			// survive untouched; a complete CURRENT is the commit point and
			// is exercised separately below.
			if art.name == currentFile && cut == len(art.data) {
				continue
			}
			dir := filepath.Join(work, fmt.Sprintf("s%d-%d", i, cut))
			copyDir(t, src, dir)
			for _, done := range arts[:i] {
				name := done.name
				if done.atomic && done.name == currentFile {
					name = done.name // rename already happened for earlier artifacts
				}
				if err := os.WriteFile(filepath.Join(dir, name), done.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			name := art.name
			if art.atomic {
				name += ".tmp" // crash before the rename: only the tmp exists
			}
			if err := os.WriteFile(filepath.Join(dir, name), art.data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			verifyStore(t, dir, fmt.Sprintf("%s@%d", art.name, cut), live, deleted)
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			states++
		}
	}

	// Crash after the commit point: CURRENT names generation 1 but the
	// manifest and all obsolete files are still present. The janitor must
	// finish the cleanup and serve the compacted state.
	dir := filepath.Join(work, "post-commit")
	copyDir(t, src, dir)
	for _, art := range arts {
		if err := os.WriteFile(filepath.Join(dir, art.name), art.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	verifyStore(t, dir, "post-commit", live, deleted)
	for _, seg := range m.DropSegments {
		if _, err := os.Stat(filepath.Join(dir, seg)); !os.IsNotExist(err) {
			t.Fatalf("janitor left obsolete segment %s", seg)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); !os.IsNotExist(err) {
		t.Fatal("janitor left the manifest")
	}
	if _, err := os.Stat(filepath.Join(dir, "index.jsonl")); !os.IsNotExist(err) {
		t.Fatal("janitor left the obsolete index")
	}

	// Crash mid-cleanup: manifest present but its drops already removed —
	// the redo must be idempotent.
	dir2 := filepath.Join(work, "post-cleanup")
	copyDir(t, src, dir2)
	for _, art := range arts {
		if err := os.WriteFile(filepath.Join(dir2, art.name), art.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, seg := range m.DropSegments {
		if err := os.Remove(filepath.Join(dir2, seg)); err != nil {
			t.Fatal(err)
		}
	}
	verifyStore(t, dir2, "post-cleanup", live, deleted)

	t.Logf("verified %d truncation states + 2 post-commit states", states)
}
