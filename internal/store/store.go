// Package store is a persistent, content-addressed artifact store for
// trained models. It turns the paper's §4.5 finding — keeping the trained
// algorithm instance alive beats re-deserialising it on every call — into
// a durable, replica-shared design: snapshots are keyed by
// hash(algorithm + options + dataset digest), written once to append-only
// segment files, and readable by any process sharing the directory. The
// in-memory harness (harness.CachedBackend) demotes to a read-through
// memory tier over this store, so a model trained by one dmserver replica
// is warm on every other replica — the artifact outlives the worker
// (DAME's long-running-job framing; FlexDM's persist-the-expensive-
// artifact robustness argument).
//
// On-disk layout (all files append-only, never rewritten in place):
//
//	dir/seg-<unixnano>-<nonce>.dat   records: 16-byte header + key + meta + blob
//	dir/index.jsonl                  one fsynced JSON line per record
//
// Each record carries a magic, explicit lengths and a CRC over its
// payload, and every write is segment-write → fsync → index-append →
// fsync — the same torn-tail discipline as the experiment journal. A
// crash can therefore lose at most the record that was mid-write:
// recovery validates index entries against segment sizes, re-indexes
// complete records the index missed, and ignores a torn tail without
// touching bytes another live writer may still be appending. Writers
// never share a segment: each open store appends to its own uniquely
// named segment, so N replicas can Put concurrently into one directory.
//
// Space is reclaimed out of band: Delete appends a tombstone record,
// superseded same-key duplicates and tombstones are tracked as dead
// bytes, and Compact (see compact.go) rewrites the live records into
// fresh segments under a crash-safe, multi-process-coordinated swap.
package store

import (
	"bufio"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// magic opens every segment record ("DMS1").
const magic uint32 = 0x444D5331

// headerSize is the fixed record prefix: magic(4) keyLen(2) metaLen(2)
// valLen(4) crc(4).
const headerSize = 16

const (
	maxKeyLen  = 4096
	maxMetaLen = 1 << 16
	maxValLen  = 1 << 30
)

// defaultMaxSegmentBytes bounds a segment before the writer rotates to a
// fresh one.
const defaultMaxSegmentBytes = 64 << 20

// Meta is the searchable description stored alongside a snapshot blob.
type Meta struct {
	// Algorithm is the registry name of the trained algorithm.
	Algorithm string `json:"algorithm,omitempty"`
	// Kind distinguishes artifact families ("classifier", "clusterer").
	Kind string `json:"kind,omitempty"`
	// Created is the unix-seconds timestamp of the first Put.
	Created int64 `json:"created,omitempty"`
	// Deleted marks a tombstone record written by Delete.
	Deleted bool `json:"deleted,omitempty"`
}

// Entry is one indexed artifact.
type Entry struct {
	Key     string
	Meta    Meta
	Size    int    // blob bytes
	Segment string // segment file name
	Offset  int64  // record start within the segment
	recLen  int64  // full record length (header + key + meta + blob)
}

// indexLine is the JSON-lines schema of index.jsonl.
type indexLine struct {
	Key       string `json:"key"`
	Segment   string `json:"seg"`
	Offset    int64  `json:"off"`
	RecLen    int64  `json:"rlen"`
	Size      int    `json:"size"`
	Algorithm string `json:"algorithm,omitempty"`
	Kind      string `json:"kind,omitempty"`
	Created   int64  `json:"created,omitempty"`
	Del       bool   `json:"del,omitempty"`
}

// Stats are per-open-store counters (process-local, unlike the shared obs
// metrics) so tests and tools can assert on one replica's traffic.
type Stats struct {
	Hits      int64 // Get found the key
	Misses    int64 // Get did not, even after an index refresh
	Puts      int64 // records written by this store
	DupPuts   int64 // content-addressed no-ops (key already stored)
	Recovered int64 // records re-indexed from segment scans at Open
	Dropped   int64 // torn/invalid index entries discarded at Open
	Deletes   int64 // tombstones written by this store
	Supersede int64 // records another record or tombstone made dead
	GenResets int64 // times this store adopted a new compaction generation
	Compacted int64 // compactions this store committed
}

// Option configures an Open.
type Option func(*Store)

// WithObs routes the store's metrics to reg instead of obs.Default.
func WithObs(reg *obs.Registry) Option {
	return func(s *Store) { s.obs = reg }
}

// Store is an open artifact store. It is safe for concurrent use by
// multiple goroutines, and a directory is safe for concurrent use by
// multiple Stores (including in other processes).
type Store struct {
	dir        string
	maxSegment int64
	obs        *obs.Registry

	mu         sync.Mutex
	gen        int64    // compaction generation adopted from CURRENT
	idxName    string   // live index file for this generation
	lockF      *os.File // flock target shared by every process on dir
	index      map[string]*Entry
	order      []string         // insertion order of keys, for List
	tombstoned map[string]bool  // keys currently deleted
	tombSeen   map[string]int64 // tombstone "seg:off" -> record end, for replay dedupe
	readers    map[string]*os.File
	idxF       *os.File // O_APPEND handle for writes
	idxOff     int64    // bytes of the index file already consumed
	active     *os.File // this store's own segment (lazily created)
	activeName string
	activeSize int64
	bytes      int64 // indexed record bytes, live + dead
	deadBytes  int64 // superseded records + tombstones and their victims
	stats      Stats
}

// Open opens (creating if needed) the store rooted at dir, recovering the
// index from disk: torn index lines are skipped, entries pointing past a
// segment's recovered tail are dropped, and complete records the index
// missed (a crash between segment fsync and index fsync) are re-indexed.
// When no other store has dir open, Open also finishes or rolls back any
// compaction a SIGKILL interrupted (see the janitor in compact.go).
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:        dir,
		maxSegment: defaultMaxSegmentBytes,
		index:      map[string]*Entry{},
		tombstoned: map[string]bool{},
		tombSeen:   map[string]int64{},
		readers:    map[string]*os.File{},
	}
	for _, o := range opts {
		o(s)
	}
	lockF, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.lockF = lockF
	fail := func(err error) (*Store, error) {
		if s.idxF != nil {
			s.idxF.Close()
		}
		lockF.Close()
		return nil, err
	}
	// With the directory exclusively ours, clean up after any compaction
	// that died mid-flight. If someone else holds the lock a compactor or
	// writer is alive — the state is consistent and needs no janitor.
	if ok, err := s.flockTry(syscall.LOCK_EX); err != nil {
		return fail(err)
	} else if ok {
		if err := s.janitor(); err != nil {
			s.funlock()
			return fail(err)
		}
		s.funlock()
	}
	// Recover under the shared lock so no compaction swaps files mid-scan.
	if err := s.flock(syscall.LOCK_SH); err != nil {
		return fail(err)
	}
	defer s.funlock()
	gen, idxName, err := readCurrent(dir)
	if err != nil {
		return fail(err)
	}
	s.gen, s.idxName = gen, idxName
	idxF, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	s.idxF = idxF
	if err := s.consumeIndexLocked(); err != nil {
		return fail(err)
	}
	if err := s.recoverSegments(); err != nil {
		return fail(err)
	}
	s.publishGauges()
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, s.idxName) }

func (s *Store) obsReg() *obs.Registry {
	if s.obs != nil {
		return s.obs
	}
	return obs.Default
}

func (s *Store) publishGauges() {
	reg := s.obsReg()
	reg.Gauge("store_entries").Set(int64(len(s.index)))
	reg.Gauge("store_bytes").Set(s.bytes)
	reg.Gauge("store_live_bytes").Set(s.bytes - s.deadBytes)
	reg.Gauge("store_dead_bytes").Set(s.deadBytes)
	reg.Gauge("store_generation").Set(s.gen)
}

// refreshLocked brings the in-memory view up to date with disk: it first
// adopts any compaction generation another process committed, then
// consumes new index lines. Caller holds s.mu.
func (s *Store) refreshLocked() error {
	if reset, err := s.checkGenerationLocked(); err != nil {
		return err
	} else if reset {
		return nil // adopting the generation already reloaded the index
	}
	return s.consumeIndexLocked()
}

// consumeIndexLocked consumes index lines appended since the last read
// (by this or any other writer sharing the directory) and folds the valid
// ones into the in-memory index. Malformed lines — a torn tail from a
// killed writer — are skipped, never trusted. Caller holds s.mu (or is
// Open, before the store escapes).
func (s *Store) consumeIndexLocked() error {
	f, err := os.Open(s.indexPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(s.idxOff, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	segSizes := map[string]int64{}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			break // EOF or torn tail: whatever remains is not a full line
		}
		s.idxOff += int64(len(line))
		var il indexLine
		if json.Unmarshal(line, &il) != nil || il.Key == "" || il.RecLen < headerSize {
			s.stats.Dropped++
			continue
		}
		// Validate against the segment: an entry whose record extends past
		// the file's current size is the torn tail of a crashed writer.
		size, ok := segSizes[il.Segment]
		if !ok {
			fi, err := os.Stat(filepath.Join(s.dir, il.Segment))
			if err != nil {
				size = -1
			} else {
				size = fi.Size()
			}
			segSizes[il.Segment] = size
		}
		if size < 0 || il.Offset+il.RecLen > size {
			s.stats.Dropped++
			continue
		}
		if il.Del {
			// Tombstones are applied once per distinct record: the index is
			// re-read from idxOff after our own appends, and a replayed
			// tombstone must not re-kill a key a later Put revived.
			loc := fmt.Sprintf("%s:%d", il.Segment, il.Offset)
			if _, seen := s.tombSeen[loc]; !seen {
				s.tombSeen[loc] = il.Offset + il.RecLen
				s.applyTombstone(il.Key, il.RecLen)
			}
			continue
		}
		s.addEntry(&Entry{
			Key:  il.Key,
			Meta: Meta{Algorithm: il.Algorithm, Kind: il.Kind, Created: il.Created},
			Size: il.Size, Segment: il.Segment, Offset: il.Offset, recLen: il.RecLen,
		})
	}
	return nil
}

func (s *Store) addEntry(e *Entry) {
	delete(s.tombstoned, e.Key) // a re-Put after Delete revives the key
	if old, ok := s.index[e.Key]; ok {
		// Same key at a new location: another replica raced us to write
		// this content. The older record's bytes are dead until compaction.
		if old.Segment != e.Segment || old.Offset != e.Offset {
			s.bytes += e.recLen
			s.deadBytes += old.recLen
			s.stats.Supersede++
		}
		s.index[e.Key] = e
		return
	}
	s.order = append(s.order, e.Key)
	s.bytes += e.recLen
	s.index[e.Key] = e
}

// applyTombstone folds a Delete into the view: the key's live record (if
// any) and the tombstone itself both become dead bytes awaiting Compact.
func (s *Store) applyTombstone(key string, recLen int64) {
	if old, ok := s.index[key]; ok {
		delete(s.index, key)
		for i, k := range s.order {
			if k == key {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.deadBytes += old.recLen
		s.stats.Supersede++
	}
	s.tombstoned[key] = true
	s.bytes += recLen
	s.deadBytes += recLen
}

// recoverSegments scans every segment past its highest indexed offset and
// re-indexes complete, CRC-valid records the index missed. The scan stops
// at the first invalid record — the torn tail of a crashed writer (or the
// in-progress write of a live one) — without truncating anything.
// Compaction segments of other generations are skipped: they are either
// partial-compaction debris awaiting the janitor or already obsolete.
func (s *Store) recoverSegments() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.dat"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	csegs, err := filepath.Glob(filepath.Join(s.dir, "cseg-*.dat"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, p := range csegs {
		if csegGen(filepath.Base(p)) == s.gen {
			names = append(names, p)
		}
	}
	sort.Strings(names)
	tail := map[string]int64{}
	for _, e := range s.index {
		if end := e.Offset + e.recLen; end > tail[e.Segment] {
			tail[e.Segment] = end
		}
	}
	for loc, end := range s.tombSeen {
		if i := strings.LastIndexByte(loc, ':'); i > 0 {
			if seg := loc[:i]; end > tail[seg] {
				tail[seg] = end
			}
		}
	}
	for _, path := range names {
		seg := filepath.Base(path)
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		off := tail[seg]
		for {
			e, _, ok := readRecordAt(f, off)
			if !ok {
				break
			}
			e.Segment = seg
			switch {
			case e.Meta.Deleted:
				// An unindexed tombstone: a crash hit between the record
				// write and the index append. Finish the Delete.
				loc := fmt.Sprintf("%s:%d", seg, off)
				if _, seen := s.tombSeen[loc]; !seen {
					if err := s.appendIndexLine(e, true); err != nil {
						f.Close()
						return err
					}
					s.tombSeen[loc] = off + e.recLen
					s.applyTombstone(e.Key, e.recLen)
					s.stats.Recovered++
				}
			case s.tombstoned[e.Key]:
				// A stale copy of a deleted key must not resurrect it.
			default:
				if _, dup := s.index[e.Key]; !dup {
					if err := s.appendIndexLine(e, false); err != nil {
						f.Close()
						return err
					}
					s.addEntry(e)
					s.stats.Recovered++
				}
			}
			off += e.recLen
		}
		f.Close()
	}
	return nil
}

// readRecordAt parses and verifies one record at off, returning its entry
// and blob. ok=false means no valid record starts there — a torn tail, an
// in-progress write, or the end of the segment.
func readRecordAt(f *os.File, off int64) (*Entry, []byte, bool) {
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, nil, false // short read: no record here
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != magic {
		return nil, nil, false
	}
	keyLen := int(binary.BigEndian.Uint16(hdr[4:6]))
	metaLen := int(binary.BigEndian.Uint16(hdr[6:8]))
	valLen := int(binary.BigEndian.Uint32(hdr[8:12]))
	wantCRC := binary.BigEndian.Uint32(hdr[12:16])
	if keyLen == 0 || keyLen > maxKeyLen || metaLen > maxMetaLen || valLen > maxValLen {
		return nil, nil, false
	}
	body := make([]byte, keyLen+metaLen+valLen)
	if _, err := f.ReadAt(body, off+headerSize); err != nil {
		return nil, nil, false
	}
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, nil, false
	}
	var meta Meta
	if metaLen > 0 {
		if err := json.Unmarshal(body[keyLen:keyLen+metaLen], &meta); err != nil {
			return nil, nil, false
		}
	}
	e := &Entry{
		Key:    string(body[:keyLen]),
		Meta:   meta,
		Size:   valLen,
		Offset: off,
		recLen: int64(headerSize + len(body)),
	}
	return e, body[keyLen+metaLen:], true
}

func (s *Store) appendIndexLine(e *Entry, del bool) error {
	b, err := json.Marshal(indexLine{
		Key: e.Key, Segment: e.Segment, Offset: e.Offset, RecLen: e.recLen,
		Size: e.Size, Algorithm: e.Meta.Algorithm, Kind: e.Meta.Kind, Created: e.Meta.Created,
		Del: del,
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// One write syscall per line: concurrent O_APPEND writers interleave
	// whole lines, and a killed process never leaves a partial one (only
	// a power cut can, which the torn-tail skip in refresh covers).
	if _, err := s.idxF.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.idxF.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ensureSegment lazily creates this writer's own segment file, rotating
// when the active one exceeds the bound. Segment names are unique per
// open store, so concurrent writers never interleave records.
func (s *Store) ensureSegment() error {
	if s.active != nil && s.activeSize < s.maxSegment {
		return nil
	}
	if s.active != nil {
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.active = nil
	}
	var nonce [4]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := fmt.Sprintf("seg-%d-%s.dat", time.Now().UnixNano(), hex.EncodeToString(nonce[:]))
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.active, s.activeName, s.activeSize = f, name, 0
	s.obsReg().Counter("store_segments_total").Inc()
	return nil
}

// Put stores blob under key. The store is content-addressed: a key that
// already exists is a no-op (the content is by construction identical),
// so concurrent replicas may race to snapshot the same model safely.
// The write happens under the shared compaction lock: it can proceed
// concurrently with every other writer but never overlaps a Compact,
// and it adopts a freshly committed generation before touching disk.
func (s *Store) Put(key string, meta Meta, blob []byte) error {
	if key == "" || len(key) > maxKeyLen || strings.ContainsAny(key, "\n\r") {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if len(blob) > maxValLen {
		return fmt.Errorf("store: blob for %q exceeds %d bytes", key, maxValLen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flock(syscall.LOCK_SH); err != nil {
		return err
	}
	defer s.funlock()
	if _, err := s.checkGenerationLocked(); err != nil {
		return err
	}
	if _, ok := s.index[key]; ok {
		s.stats.DupPuts++
		s.obsReg().Counter("store_dup_puts_total").Inc()
		return nil
	}
	if meta.Created == 0 {
		meta.Created = time.Now().Unix()
	}
	e, err := s.appendRecord(key, meta, blob)
	if err != nil {
		return err
	}
	s.addEntry(e)
	s.stats.Puts++
	s.obsReg().Counter("store_puts_total").Inc()
	s.publishGauges()
	return nil
}

// appendRecord writes, syncs and indexes one record, built in one buffer:
// the header, then the key, meta and blob its CRC covers.
func (s *Store) appendRecord(key string, meta Meta, blob []byte) (*Entry, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if len(metaJSON) > maxMetaLen {
		return nil, fmt.Errorf("store: meta for %q exceeds %d bytes", key, maxMetaLen)
	}
	if err := s.ensureSegment(); err != nil {
		return nil, err
	}
	rec := make([]byte, headerSize, headerSize+len(key)+len(metaJSON)+len(blob))
	binary.BigEndian.PutUint32(rec[0:4], magic)
	binary.BigEndian.PutUint16(rec[4:6], uint16(len(key)))
	binary.BigEndian.PutUint16(rec[6:8], uint16(len(metaJSON)))
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(blob)))
	rec = append(append(append(rec, key...), metaJSON...), blob...)
	binary.BigEndian.PutUint32(rec[12:16], crc32.ChecksumIEEE(rec[headerSize:]))

	off := s.activeSize
	if _, err := s.active.WriteAt(rec, off); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.active.Sync(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.activeSize += int64(len(rec))
	e := &Entry{Key: key, Meta: meta, Size: len(blob),
		Segment: s.activeName, Offset: off, recLen: int64(len(rec))}
	return e, s.appendIndexLine(e, meta.Deleted)
}

// Delete appends a tombstone for key. The key's record and the tombstone
// both become dead bytes that the next Compact reclaims; until then other
// replicas observe the delete through their normal index refresh. Deleting
// an absent key is a no-op.
func (s *Store) Delete(key string) error {
	if key == "" || len(key) > maxKeyLen || strings.ContainsAny(key, "\n\r") {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flock(syscall.LOCK_SH); err != nil {
		return err
	}
	defer s.funlock()
	if err := s.refreshLocked(); err != nil {
		return err
	}
	if _, ok := s.index[key]; !ok {
		return nil
	}
	e, err := s.appendRecord(key, Meta{Created: time.Now().Unix(), Deleted: true}, nil)
	if err != nil {
		return err
	}
	s.tombSeen[fmt.Sprintf("%s:%d", e.Segment, e.Offset)] = e.Offset + e.recLen
	s.applyTombstone(key, e.recLen)
	s.stats.Deletes++
	s.obsReg().Counter("store_deletes_total").Inc()
	s.publishGauges()
	return nil
}

// Get returns the blob and meta stored under key. A miss first refreshes
// the index from disk, so records appended by other replicas sharing the
// directory become visible without reopening the store. Reads take no
// cross-process lock: when a record fails to open or verify because a
// concurrent compaction swapped the files underneath us, Get adopts the
// new generation and retries once before declaring the key bad.
func (s *Store) Get(key string) ([]byte, Meta, error) {
	s.mu.Lock()
	for attempt := 0; ; attempt++ {
		e, ok := s.index[key]
		if !ok {
			if err := s.refreshLocked(); err != nil {
				s.mu.Unlock()
				return nil, Meta{}, err
			}
			e, ok = s.index[key]
		}
		if !ok {
			s.stats.Misses++
			s.mu.Unlock()
			s.obsReg().Counter("store_misses_total").Inc()
			return nil, Meta{}, fmt.Errorf("store: no artifact for key %q", key)
		}
		f, err := s.readerLocked(e.Segment)
		if err == nil {
			if got, blob, valid := readRecordAt(f, e.Offset); valid && got.Key == key {
				s.stats.Hits++
				s.mu.Unlock()
				s.obsReg().Counter("store_hits_total").Inc()
				return blob, got.Meta, nil
			}
		}
		if attempt == 0 {
			if reset, rerr := s.checkGenerationLocked(); rerr == nil && reset {
				continue // the files moved; re-resolve against the new index
			}
		}
		s.stats.Misses++
		s.mu.Unlock()
		s.obsReg().Counter("store_misses_total").Inc()
		return nil, Meta{}, fmt.Errorf("store: artifact for key %q failed verification", key)
	}
}

func (s *Store) readerLocked(segment string) (*os.File, error) {
	if f, ok := s.readers[segment]; ok {
		return f, nil
	}
	f, err := os.Open(filepath.Join(s.dir, segment))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.readers[segment] = f
	return f, nil
}

// Refresh brings the in-memory view up to date with disk on demand —
// new index lines from other writers and any committed compaction
// generation — without waiting for a Get miss to trigger it. Tools that
// List() a live shared directory (dminfo, the soak harness's retention
// worker) call it first.
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.refreshLocked()
	s.publishGauges()
	return err
}

// Has reports whether key is stored (without counting a hit or miss, and
// without refreshing from disk).
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Len returns the number of stored artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// List returns every entry in first-indexed order.
func (s *Store) List() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, *s.index[k])
	}
	return out
}

// Bytes returns the total indexed record bytes (live + dead).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// DeadBytes returns the indexed bytes held by superseded records and
// tombstones — what the next Compact would reclaim.
func (s *Store) DeadBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadBytes
}

// LiveBytes returns Bytes minus DeadBytes.
func (s *Store) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes - s.deadBytes
}

// Generation returns the compaction generation this store has adopted.
func (s *Store) Generation() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns this open store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close releases every file handle. The on-disk state needs no shutdown
// step: every record and index line was already fsynced by its Put.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range s.readers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.readers = map[string]*os.File{}
	if s.active != nil {
		if err := s.active.Close(); err != nil && first == nil {
			first = err
		}
		s.active = nil
	}
	if s.idxF != nil {
		if err := s.idxF.Close(); err != nil && first == nil {
			first = err
		}
		s.idxF = nil
	}
	if s.lockF != nil {
		// Closing the lock file also releases any flock the kernel still
		// holds for us — the same guarantee a SIGKILL gets.
		if err := s.lockF.Close(); err != nil && first == nil {
			first = err
		}
		s.lockF = nil
	}
	return first
}

// Key derives the content address of a trained model: the algorithm name,
// its canonicalised options, the training-data digest (dataset.Digest)
// and the designated class attribute. It is shared by the persistent
// store and the in-memory harness tier, so the two can never disagree
// about identity — and two datasets with the same algorithm string can
// never collide, because the dataset digest is always part of the hash.
func Key(algorithm string, options map[string]string, datasetDigest, attribute string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00", algorithm)
	keys := make([]string, 0, len(options))
	for k := range options {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\x00", k, options[k])
	}
	fmt.Fprintf(h, "%s\x00%s", attribute, datasetDigest)
	return hex.EncodeToString(h.Sum(nil))[:40]
}
