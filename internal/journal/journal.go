// Package journal is the toolkit's append-only JSON-lines checkpoint
// log: one record per line, fsynced on write, so a killed writer loses at
// most the record that was in flight. The workflow engine journals step
// outcomes in it, an experiment batch's jobs included, and resumes by
// reopening the same path.
//
// The file is owned by one process at a time. A torn or malformed tail —
// the signature of a SIGKILLed writer — is truncated away on Open so
// later appends stay well-formed. (The model store's index.jsonl is a
// different discipline: many processes append to it, so its readers skip
// bad lines and never truncate.)
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// file is what a Log needs of *os.File — the seam the append-failure
// tests substitute.
type file interface {
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log is an open journal of T records.
type Log[T any] struct {
	path string
	key  func(T) (id string, ok bool)

	mu      sync.Mutex
	f       file
	size    int64 // file offset just past the last acknowledged record
	broken  error // set when a failed append could not be rolled back
	records []T
	done    map[string]T // id -> latest record whose key reported ok
}

// Open opens (creating if absent) the journal at path and loads its
// existing records. key names a record's identity and says whether it
// completed its unit of work; a line that does not parse, or whose id is
// empty, ends the valid prefix and everything from it on is truncated.
func Open[T any](path string, key func(T) (id string, ok bool)) (*Log[T], error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l := &Log[T]{path: path, key: key, f: f, done: map[string]T{}}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			break // no trailing newline: torn write, drop it
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("journal %s: %w", path, err)
		}
		var rec T
		if json.Unmarshal(line, &rec) != nil {
			break
		}
		if id, _ := key(rec); id == "" {
			break
		}
		l.size += int64(len(line))
		l.add(rec)
	}
	if err := f.Truncate(l.size); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return l, nil
}

func (l *Log[T]) add(rec T) {
	l.records = append(l.records, rec)
	if id, ok := l.key(rec); ok {
		l.done[id] = rec
	}
}

// Append writes one record and syncs it to disk. A record is
// acknowledged only when Append returns nil. When the write or the sync
// fails, the file is cut back to the last acknowledged record so a later
// successful Append is never stranded behind a torn fragment (which the
// next Open would truncate at, dropping it); if even that fails the Log
// refuses every further Append with the same error.
func (l *Log[T]) Append(rec T) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	_, err = l.f.WriteAt(b, l.size)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("journal %s: unusable after failed append (%v) and failed rollback: %w", l.path, err, terr)
			return l.broken
		}
		return fmt.Errorf("journal %s: %w", l.path, err)
	}
	l.size += int64(len(b))
	l.add(rec)
	return nil
}

// Completed returns the latest record for id whose key reported ok, if
// one exists.
func (l *Log[T]) Completed(id string) (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.done[id]
	return rec, ok
}

// Records returns a copy of every journal record in append order.
func (l *Log[T]) Records() []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]T(nil), l.records...)
}

// Len returns the number of journal records.
func (l *Log[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Close closes the underlying file.
func (l *Log[T]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
