// Package model provides durable serialisation and a keyed store for
// trained models. It is the substrate for two parts of the paper: the
// Grid-WEKA style distributed tasks of §2 (shipping a previously built
// classifier to another resource) and the §4.5 performance experiment, in
// which the naive service deployment "re-built [the object] from its
// serialised state on disk" on every invocation.
package model

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/binfmt"
	"repro/internal/classify"
)

// A snapshot is one frame (integers little-endian, uvarints as in
// encoding/binary):
//
//	"DMM1"        magic
//	u8  version   currently 1
//	str tag       the algorithm's registry name (u32 length)
//	string table  uvarint count, each entry's uvarint length, the bytes
//	body          the algorithm's Snapshot, strings as string-table
//	              indices
//
// Any change to the bytes an algorithm writes bumps the version. The
// durable store caches derived state, so a snapshot in another codec or
// version is a miss that rebuilds; there is no compatibility path.
const (
	magic   = "DMM1"
	version = 1
)

// snapshotter is the codec every registered classifier carries: one
// Snapshot method, run once to write and once to read.
type snapshotter interface{ Snapshot(c binfmt.Codec) }

// bodies recycles body writers: a snapshot's one lasting allocation is its frame.
var bodies = sync.Pool{New: func() any { return new(binfmt.Writer) }}

// Marshal serialises a trained classifier, algorithm tag included.
func Marshal(c classify.Classifier) ([]byte, error) {
	tag := c.Name()
	s, ok := c.(snapshotter)
	if !ok {
		return nil, fmt.Errorf("model: %s has no snapshot form", tag)
	}
	w := bodies.Get().(*binfmt.Writer)
	w.Reset()
	defer bodies.Put(w)
	if s.Snapshot(binfmt.Codec{W: w}); w.Err() != nil {
		return nil, fmt.Errorf("model: marshal %s: %w", tag, w.Err())
	}
	body := len(w.Buf)
	w.Buf = w.AppendSyms(w.Buf) // the string table, after the body for now
	f := binfmt.Writer{Buf: make([]byte, 0, len(magic)+5+len(tag)+len(w.Buf))}
	f.Buf = append(f.Buf, magic...)
	f.U8(version)
	f.Str(tag)
	f.Buf = append(append(f.Buf, w.Buf[body:]...), w.Buf[:body]...)
	return f.Buf, nil
}

// Unmarshal reverses Marshal. Malformed input is a *binfmt.FormatError,
// never a panic. The model comes from its registry factory, so fields a
// snapshot does not carry (an ensemble's Base learner) keep their
// defaults.
func Unmarshal(b []byte) (classify.Classifier, error) {
	r := binfmt.NewReader("model", b)
	r.Header(magic, version)
	tag := r.Str()
	if r.ReadSyms(); r.Err() != nil {
		return nil, r.Err()
	}
	m, err := classify.New(tag)
	s, ok := m.(snapshotter)
	if err != nil || !ok {
		return nil, binfmt.Errorf("model", "no snapshot form for %q", tag)
	}
	if s.Snapshot(binfmt.Codec{R: r}); r.End() != nil {
		return nil, r.Err()
	}
	return m, nil
}

// Store is a disk-backed model store keyed by model ID — the "serialised
// state on disk" of §4.5.
type Store struct {
	dir string
	mu  sync.Mutex
}

// NewStore creates (or reuses) a directory-backed store.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(id string) (string, error) {
	if id == "" || filepath.Base(id) != id {
		return "", fmt.Errorf("model: invalid model id %q", id)
	}
	return filepath.Join(s.dir, id+".model"), nil
}

// Save serialises the model under id, overwriting any previous state.
func (s *Store) Save(id string, c classify.Classifier) error {
	p, err := s.path(id)
	if err != nil {
		return err
	}
	b, err := Marshal(c)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := os.Rename(tmp, p); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	return nil
}

// Load rebuilds the model stored under id.
func (s *Store) Load(id string) (classify.Classifier, error) {
	p, err := s.path(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	b, err := os.ReadFile(p)
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return Unmarshal(b)
}
