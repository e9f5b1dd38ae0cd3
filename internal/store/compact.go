// Compaction, garbage collection and multi-process coordination for the
// content-addressed store.
//
// The append-only design of store.go never reclaims space: a key written
// by two racing replicas keeps both records, and a Delete only adds a
// tombstone. Compact() rewrites exactly the live records into fresh
// fsynced segments and atomically swaps in a rewritten index, reclaiming
// every dead byte. The protocol is crash-safe at any byte and safe
// against concurrent readers and writers in other processes:
//
//	dir/store.lock        flock target: writers hold it SHARED across each
//	                      Put/Delete, the compactor holds it EXCLUSIVE
//	dir/CURRENT           JSON {gen, index}: which index file is live.
//	                      Swapped by write-tmp -> fsync -> rename, so it
//	                      is always complete; absent means generation 0
//	                      with the legacy index.jsonl
//	dir/cseg-<gen>-<k>.dat   compaction output segments for generation gen
//	dir/index-<gen>.jsonl    the rewritten index for generation gen
//	dir/gc-manifest.json     redo log: the files the committed compaction
//	                         makes obsolete
//
// Commit order: cseg writes -> fsync, new index -> fsync, manifest
// (atomic), CURRENT (atomic rename = the commit point), delete obsolete
// files, delete manifest. A SIGKILL before the CURRENT rename leaves the
// old generation fully intact — Open's janitor discards the partial
// cseg/index debris (anything with a generation newer than CURRENT's).
// A SIGKILL after the rename leaves the manifest — the janitor redoes
// its deletions. Either way no live record is ever lost.
//
// Writers coordinate through the generation number: every Put/Delete
// (under the shared flock, which excludes a running compaction) re-reads
// CURRENT and, when the generation moved, drops its in-memory index,
// abandons its active segment (the compactor may have deleted it) and
// reloads from the new index before writing. Readers stay lock-free:
// Get retries once through the same generation check when a record no
// longer verifies because the files were swapped underneath it.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	lockFile     = "store.lock"
	currentFile  = "CURRENT"
	manifestFile = "gc-manifest.json"
)

// GCPolicy decides when MaybeCompact actually compacts and which records
// it retires. The zero value never triggers.
type GCPolicy struct {
	// MaxDeadBytes compacts once the indexed dead bytes (superseded
	// records + tombstones) exceed this bound (0 = no byte trigger).
	MaxDeadBytes int64
	// MaxDeadFraction compacts once dead/total indexed bytes exceeds
	// this fraction (0 = no fraction trigger).
	MaxDeadFraction float64
	// MaxAge retires records whose Created stamp is older than this and
	// triggers a compaction when any exist (0 = keep forever).
	MaxAge time.Duration
}

func (p GCPolicy) enabled() bool {
	return p.MaxDeadBytes > 0 || p.MaxDeadFraction > 0 || p.MaxAge > 0
}

// CompactStats reports what one compaction did.
type CompactStats struct {
	Generation     int64 // the generation the compaction committed
	LiveRecords    int   // records rewritten into the new segments
	ExpiredRecords int   // records retired by the age policy
	BytesBefore    int64 // indexed bytes before (live + dead)
	BytesAfter     int64 // indexed bytes after (all live)
	ReclaimedBytes int64 // BytesBefore - BytesAfter
	Duration       time.Duration
}

// currentDoc is the JSON schema of the CURRENT file.
type currentDoc struct {
	Gen   int64  `json:"gen"`
	Index string `json:"index"`
}

// gcManifest is the redo log fsynced immediately before the CURRENT
// swap: the files the new generation makes obsolete. Open's janitor
// replays it after a crash between the swap and the cleanup.
type gcManifest struct {
	Gen          int64    `json:"gen"`
	DropSegments []string `json:"dropSegments"`
	DropIndexes  []string `json:"dropIndexes"`
}

// --- flock helpers -------------------------------------------------------

// flock acquires the given flock mode on the store's lock file, retrying
// through EINTR. Modes: syscall.LOCK_SH / LOCK_EX / LOCK_UN.
func (s *Store) flock(how int) error {
	for {
		err := syscall.Flock(int(s.lockF.Fd()), how)
		if err != syscall.EINTR {
			if err != nil {
				return fmt.Errorf("store: flock: %w", err)
			}
			return nil
		}
	}
}

// flockTry attempts a non-blocking acquisition; ok=false means another
// open store (possibly in another process) holds a conflicting lock.
func (s *Store) flockTry(how int) (bool, error) {
	for {
		err := syscall.Flock(int(s.lockF.Fd()), how|syscall.LOCK_NB)
		switch err {
		case nil:
			return true, nil
		case syscall.EINTR:
			continue
		case syscall.EWOULDBLOCK:
			return false, nil
		default:
			return false, fmt.Errorf("store: flock: %w", err)
		}
	}
}

func (s *Store) funlock() { _ = syscall.Flock(int(s.lockF.Fd()), syscall.LOCK_UN) }

// --- CURRENT / atomic file helpers ---------------------------------------

// readCurrent returns the committed generation and index file name. A
// missing CURRENT is generation 0 over the legacy index.jsonl, so store
// directories created before compaction existed open unchanged.
func readCurrent(dir string) (int64, string, error) {
	b, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, "index.jsonl", nil
		}
		return 0, "", fmt.Errorf("store: %w", err)
	}
	var c currentDoc
	if err := json.Unmarshal(b, &c); err != nil {
		return 0, "", fmt.Errorf("store: corrupt CURRENT: %w", err)
	}
	if c.Index == "" || strings.ContainsAny(c.Index, "/\\") {
		return 0, "", fmt.Errorf("store: corrupt CURRENT: index %q", c.Index)
	}
	return c.Gen, c.Index, nil
}

// writeFileAtomic writes data to path via tmp -> fsync -> rename ->
// fsync(dir), so the file at path is always complete.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// csegGen parses the generation out of a cseg-<gen>-<k>.dat name
// (-1 when the name is not a compaction segment).
func csegGen(name string) int64 {
	if !strings.HasPrefix(name, "cseg-") || !strings.HasSuffix(name, ".dat") {
		return -1
	}
	rest := strings.TrimSuffix(strings.TrimPrefix(name, "cseg-"), ".dat")
	i := strings.IndexByte(rest, '-')
	if i <= 0 {
		return -1
	}
	var gen int64
	if _, err := fmt.Sscanf(rest[:i], "%d", &gen); err != nil {
		return -1
	}
	return gen
}

// --- janitor: finish or roll back an interrupted compaction --------------

// janitor runs under the exclusive flock at Open. It replays a committed
// manifest's deletions (crash after the CURRENT swap) and discards
// partial-compaction debris: cseg/index files of any generation other
// than the committed one, plus stray .tmp files. With the exclusive lock
// held no writer or compactor is active, so everything it removes is
// provably garbage.
func (s *Store) janitor() error {
	gen, idxName, err := readCurrent(s.dir)
	if err != nil {
		return err
	}
	mPath := filepath.Join(s.dir, manifestFile)
	if b, err := os.ReadFile(mPath); err == nil {
		var m gcManifest
		if json.Unmarshal(b, &m) == nil && m.Gen <= gen {
			// The generation the manifest belongs to committed; redo its
			// cleanup (idempotent — files may already be gone).
			for _, seg := range m.DropSegments {
				_ = os.Remove(filepath.Join(s.dir, seg))
			}
			for _, idx := range m.DropIndexes {
				_ = os.Remove(filepath.Join(s.dir, idx))
			}
		}
		// A manifest for a generation newer than CURRENT belongs to a
		// compaction that never committed — its debris is removed below.
		_ = os.Remove(mPath)
	}
	// Partial compaction output: cseg/index files of non-committed
	// generations only ever exist mid-compaction, and no compaction is
	// running (we hold the exclusive lock).
	csegs, _ := filepath.Glob(filepath.Join(s.dir, "cseg-*.dat"))
	for _, p := range csegs {
		if csegGen(filepath.Base(p)) != gen {
			_ = os.Remove(p)
		}
	}
	idxs, _ := filepath.Glob(filepath.Join(s.dir, "index*.jsonl"))
	for _, p := range idxs {
		if filepath.Base(p) != idxName {
			_ = os.Remove(p)
		}
	}
	for _, tmp := range []string{currentFile + ".tmp", manifestFile + ".tmp"} {
		_ = os.Remove(filepath.Join(s.dir, tmp))
	}
	return nil
}

// --- generation tracking --------------------------------------------------

// checkGenerationLocked re-reads CURRENT and, when another process
// committed a compaction since this store last looked, resets the
// in-memory view onto the new generation: the index is reloaded from the
// rewritten file, stale segment readers are dropped, and the active
// segment is abandoned (the compactor deleted it — appending further
// records to the old unlinked inode would lose them). Returns whether a
// reset happened. Caller holds s.mu.
func (s *Store) checkGenerationLocked() (bool, error) {
	gen, idxName, err := readCurrent(s.dir)
	if err != nil {
		return false, err
	}
	if gen == s.gen {
		return false, nil
	}
	if err := s.adoptGenerationLocked(gen, idxName); err != nil {
		return false, err
	}
	s.obsReg().Counter("store_generation_resets_total").Inc()
	return true, nil
}

// adoptGenerationLocked points the store at (gen, idxName) and reloads
// the index from scratch. Caller holds s.mu.
func (s *Store) adoptGenerationLocked(gen int64, idxName string) error {
	idxF, err := os.OpenFile(filepath.Join(s.dir, idxName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.idxF != nil {
		s.idxF.Close()
	}
	s.idxF = idxF
	s.idxOff = 0
	s.gen, s.idxName = gen, idxName
	s.index = map[string]*Entry{}
	s.order = nil
	s.tombstoned = map[string]bool{}
	s.tombSeen = map[string]int64{}
	s.bytes, s.deadBytes = 0, 0
	for _, f := range s.readers {
		f.Close()
	}
	s.readers = map[string]*os.File{}
	if s.active != nil {
		s.active.Close()
		s.active, s.activeName, s.activeSize = nil, "", 0
	}
	if err := s.consumeIndexLocked(); err != nil {
		return err
	}
	s.publishGauges()
	return nil
}

// --- compaction -----------------------------------------------------------

// Compact rewrites every live record into fresh fsynced segments,
// atomically swaps in a rewritten index, and deletes the old segments —
// reclaiming all dead bytes (superseded duplicates, tombstones and the
// records they killed). It blocks until the exclusive lock is available,
// so concurrent Puts (which hold the shared lock briefly) delay it only
// momentarily. MaybeCompact also retires records past GCPolicy.MaxAge.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flock(syscall.LOCK_EX); err != nil {
		return CompactStats{}, err
	}
	defer s.funlock()
	return s.compactLocked(0)
}

// MaybeCompact consults the policy and compacts only when due. It never
// blocks on another store's compaction: when the exclusive lock is held
// elsewhere it counts store_gc_skipped_total and returns ran=false with
// no error, and the background sweep just tries again next tick.
func (s *Store) MaybeCompact(pol GCPolicy) (CompactStats, bool, error) {
	if !pol.enabled() {
		return CompactStats{}, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.checkGenerationLocked(); err != nil {
		return CompactStats{}, false, err
	}
	if err := s.consumeIndexLocked(); err != nil {
		return CompactStats{}, false, err
	}
	if !s.gcDueLocked(pol) {
		return CompactStats{}, false, nil
	}
	ok, err := s.flockTry(syscall.LOCK_EX)
	if err != nil {
		return CompactStats{}, false, err
	}
	if !ok {
		s.obsReg().Counter("store_gc_skipped_total").Inc()
		return CompactStats{}, false, nil
	}
	defer s.funlock()
	// Another process may have compacted between the check and the lock;
	// re-evaluate under the lock so back-to-back sweeps stay idempotent.
	if reset, err := s.checkGenerationLocked(); err != nil {
		return CompactStats{}, false, err
	} else if reset && !s.gcDueLocked(pol) {
		return CompactStats{}, false, nil
	}
	st, err := s.compactLocked(pol.MaxAge)
	return st, err == nil, err
}

// gcDueLocked evaluates the policy against the current view.
func (s *Store) gcDueLocked(pol GCPolicy) bool {
	if pol.MaxDeadBytes > 0 && s.deadBytes >= pol.MaxDeadBytes {
		return true
	}
	if pol.MaxDeadFraction > 0 && s.bytes > 0 &&
		float64(s.deadBytes)/float64(s.bytes) >= pol.MaxDeadFraction {
		return true
	}
	if pol.MaxAge > 0 {
		cutoff := time.Now().Add(-pol.MaxAge).Unix()
		for _, e := range s.index {
			if e.Meta.Created > 0 && e.Meta.Created < cutoff {
				return true
			}
		}
	}
	return false
}

// compactLocked performs the compaction. Caller holds s.mu and the
// exclusive flock.
func (s *Store) compactLocked(maxAge time.Duration) (CompactStats, error) {
	began := time.Now()
	// Fold in everything committed: index lines from other replicas and
	// records crashed writers fsynced but never indexed.
	if _, err := s.checkGenerationLocked(); err != nil {
		return CompactStats{}, err
	}
	if err := s.consumeIndexLocked(); err != nil {
		return CompactStats{}, err
	}
	if err := s.recoverSegments(); err != nil {
		return CompactStats{}, err
	}
	bytesBefore := s.bytes

	var live []*Entry
	var expired int
	cutoff := int64(0)
	if maxAge > 0 {
		cutoff = time.Now().Add(-maxAge).Unix()
	}
	for _, k := range s.order {
		e := s.index[k]
		if cutoff > 0 && e.Meta.Created > 0 && e.Meta.Created < cutoff {
			expired++
			continue
		}
		live = append(live, e)
	}

	newGen := s.gen + 1
	newIdxName := fmt.Sprintf("index-%d.jsonl", newGen)
	placedSeg := make([]string, len(live))
	placedOff := make([]int64, len(live))
	var newSegs []string
	var cur *os.File
	var curName string
	var curOff int64
	closeCur := func() error {
		if cur == nil {
			return nil
		}
		if err := cur.Sync(); err != nil {
			cur.Close()
			return fmt.Errorf("store: %w", err)
		}
		err := cur.Close()
		cur = nil
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	}
	rotate := func() error {
		if err := closeCur(); err != nil {
			return err
		}
		curName = fmt.Sprintf("cseg-%d-%d.dat", newGen, len(newSegs))
		f, err := os.OpenFile(filepath.Join(s.dir, curName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		cur, curOff = f, 0
		newSegs = append(newSegs, curName)
		return nil
	}
	var liveBytes int64
	for i, e := range live {
		raw, err := s.rawRecordLocked(e)
		if err != nil {
			// An indexed record that no longer verifies is unreadable via
			// Get too; dropping it from the rewrite loses nothing.
			placedSeg[i] = ""
			continue
		}
		if cur == nil || (curOff > 0 && curOff+int64(len(raw)) > s.maxSegment) {
			if err := rotate(); err != nil {
				return CompactStats{}, err
			}
		}
		if _, err := cur.WriteAt(raw, curOff); err != nil {
			closeCur()
			return CompactStats{}, fmt.Errorf("store: %w", err)
		}
		placedSeg[i], placedOff[i] = curName, curOff
		curOff += int64(len(raw))
		liveBytes += int64(len(raw))
	}
	if err := closeCur(); err != nil {
		return CompactStats{}, err
	}

	// The rewritten index, fsynced before the commit point.
	idxPath := filepath.Join(s.dir, newIdxName)
	idxF, err := os.OpenFile(idxPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return CompactStats{}, fmt.Errorf("store: %w", err)
	}
	var idxBuf []byte
	for i, e := range live {
		if placedSeg[i] == "" {
			continue
		}
		line, err := json.Marshal(indexLine{
			Key: e.Key, Segment: placedSeg[i], Offset: placedOff[i], RecLen: e.recLen,
			Size: e.Size, Algorithm: e.Meta.Algorithm, Kind: e.Meta.Kind, Created: e.Meta.Created,
		})
		if err != nil {
			idxF.Close()
			return CompactStats{}, fmt.Errorf("store: %w", err)
		}
		idxBuf = append(idxBuf, line...)
		idxBuf = append(idxBuf, '\n')
	}
	if _, err := idxF.Write(idxBuf); err != nil {
		idxF.Close()
		return CompactStats{}, fmt.Errorf("store: %w", err)
	}
	if err := idxF.Sync(); err != nil {
		idxF.Close()
		return CompactStats{}, fmt.Errorf("store: %w", err)
	}
	if err := idxF.Close(); err != nil {
		return CompactStats{}, fmt.Errorf("store: %w", err)
	}

	// Everything the new generation obsoletes, recorded durably before
	// the swap so a post-commit crash can finish the cleanup.
	m := gcManifest{Gen: newGen}
	segs, _ := filepath.Glob(filepath.Join(s.dir, "seg-*.dat"))
	csegs, _ := filepath.Glob(filepath.Join(s.dir, "cseg-*.dat"))
	isNew := map[string]bool{}
	for _, n := range newSegs {
		isNew[n] = true
	}
	for _, p := range append(segs, csegs...) {
		if name := filepath.Base(p); !isNew[name] {
			m.DropSegments = append(m.DropSegments, name)
		}
	}
	sort.Strings(m.DropSegments)
	idxs, _ := filepath.Glob(filepath.Join(s.dir, "index*.jsonl"))
	for _, p := range idxs {
		if name := filepath.Base(p); name != newIdxName {
			m.DropIndexes = append(m.DropIndexes, name)
		}
	}
	sort.Strings(m.DropIndexes)
	mBytes, err := json.Marshal(m)
	if err != nil {
		return CompactStats{}, fmt.Errorf("store: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, manifestFile), mBytes); err != nil {
		return CompactStats{}, err
	}

	// Commit point: once CURRENT names the new generation, every other
	// process adopts it on its next generation check.
	cBytes, err := json.Marshal(currentDoc{Gen: newGen, Index: newIdxName})
	if err != nil {
		return CompactStats{}, fmt.Errorf("store: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, currentFile), cBytes); err != nil {
		return CompactStats{}, err
	}

	// Cleanup (replayed by the janitor if we die here).
	for _, seg := range m.DropSegments {
		_ = os.Remove(filepath.Join(s.dir, seg))
	}
	for _, idx := range m.DropIndexes {
		_ = os.Remove(filepath.Join(s.dir, idx))
	}
	_ = os.Remove(filepath.Join(s.dir, manifestFile))

	// Adopt the new generation in this store's own view.
	if err := s.adoptGenerationLocked(newGen, newIdxName); err != nil {
		return CompactStats{}, err
	}

	st := CompactStats{
		Generation:     newGen,
		LiveRecords:    len(s.index),
		ExpiredRecords: expired,
		BytesBefore:    bytesBefore,
		BytesAfter:     s.bytes,
		ReclaimedBytes: bytesBefore - s.bytes,
		Duration:       time.Since(began),
	}
	reg := s.obsReg()
	reg.Counter("store_gc_runs_total").Inc()
	reg.Counter("store_gc_reclaimed_bytes_total").Add(st.ReclaimedBytes)
	reg.Counter("store_gc_expired_total").Add(int64(expired))
	reg.Histogram("store_gc_ms").Observe(float64(st.Duration.Microseconds()) / 1e3)
	s.publishGauges()
	return st, nil
}

// rawRecordLocked reads and CRC-verifies the full on-disk bytes of an
// indexed record, for verbatim copying during compaction.
func (s *Store) rawRecordLocked(e *Entry) ([]byte, error) {
	f, err := s.readerLocked(e.Segment)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, e.recLen)
	if _, err := f.ReadAt(raw, e.Offset); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if int64(len(raw)) < headerSize || binary.BigEndian.Uint32(raw[0:4]) != magic {
		return nil, fmt.Errorf("store: record for %q has no magic", e.Key)
	}
	if crc32.ChecksumIEEE(raw[headerSize:]) != binary.BigEndian.Uint32(raw[12:16]) {
		return nil, fmt.Errorf("store: record for %q fails CRC", e.Key)
	}
	return raw, nil
}
