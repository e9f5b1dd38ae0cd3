package journal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

type rec struct {
	ID   string `json:"id"`
	Done bool   `json:"done"`
	Note string `json:"note,omitempty"`
}

func mustOpen(t *testing.T, path string) *Log[rec] {
	t.Helper()
	l, err := Open(path, func(r rec) (string, bool) { return r.ID, r.Done })
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestTruncateAtEveryBytePrefix: whatever prefix of a journal a killed
// writer left behind, reopening keeps every fully written record, drops
// the torn one, and leaves a file that accepts appends and reloads.
func TestTruncateAtEveryBytePrefix(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	l := mustOpen(t, full)
	want := []rec{
		{ID: "a", Done: true, Note: "first"},
		{ID: "b", Done: false, Note: "failed \"quoted\" \n newline"},
		{ID: "c", Done: true},
		{ID: "b", Done: true, Note: "retried"},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cut.jsonl")
	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := bytes.Count(raw[:cut], []byte("\n"))
		l := mustOpen(t, path)
		got := l.Records()
		if len(got) != whole || l.Len() != whole {
			t.Fatalf("cut %d: reloaded %d records, want %d", cut, len(got), whole)
		}
		for i, r := range got {
			if r != want[i] {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, r, want[i])
			}
		}
		// b completes only with its fourth-line retry.
		if _, done := l.Completed("b"); done != (whole == 4) {
			t.Fatalf("cut %d: Completed(b) = %v with %d records", cut, done, whole)
		}
		if err := l.Append(rec{ID: "z", Done: true}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		l.Close()
		l = mustOpen(t, path)
		if _, ok := l.Completed("z"); !ok || l.Len() != whole+1 {
			t.Fatalf("cut %d: after append and reopen: %d records, z completed %v", cut, l.Len(), ok)
		}
		l.Close()
	}
}

// A parseable line without an identity ends the valid prefix just as a
// torn one does.
func TestEmptyIDEndsValidPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	lines := `{"id":"a","done":true}` + "\n" + `{"done":true}` + "\n" + `{"id":"c","done":true}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, path)
	defer l.Close()
	if _, ok := l.Completed("c"); ok || l.Len() != 1 {
		t.Fatalf("kept %d records past an identity-less line (c completed: %v)", l.Len(), ok)
	}
}

// TestReopensParentJournals: journals written by the previous release's
// dmexp and dmflow (before the two journal implementations were merged
// into this package) load completely and are not rewritten by a byte.
func TestReopensParentJournals(t *testing.T) {
	type line struct {
		Job, Step, Status string
	}
	for name, wantDone := range map[string][]string{
		"parent_experiment.jsonl": {"classify:contact-lenses/ZeroR", "classify:contact-lenses/J48[confidenceFactor=0.25]"},
		"parent_workflow.jsonl":   {"source", "display"},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, func(r line) (string, bool) { return r.Job + r.Step, r.Status == "ok" })
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.Count(raw, []byte("\n")); l.Len() != want {
			t.Errorf("%s: loaded %d records, want %d", name, l.Len(), want)
		}
		for _, id := range wantDone {
			if _, ok := l.Completed(id); !ok {
				t.Errorf("%s: %s not reported complete", name, id)
			}
		}
		if _, ok := l.Completed("classify:contact-lenses/J48[confidenceFactor=bogus]"); ok {
			t.Errorf("%s: failed job reported complete", name)
		}
		l.Close()
		if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
			t.Errorf("%s: reopening rewrote a well-formed journal", name)
		}
	}
}

// flakyFile is a real file whose next operations can be made to fail.
type flakyFile struct {
	*os.File
	shortWrite, failSync, failTruncate bool
}

func (f *flakyFile) WriteAt(b []byte, off int64) (int, error) {
	if f.shortWrite {
		n, _ := f.File.WriteAt(b[:len(b)/2], off)
		return n, io.ErrShortWrite
	}
	return f.File.WriteAt(b, off)
}

func (f *flakyFile) Sync() error {
	if f.failSync {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

func (f *flakyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

// TestFailedAppend: a short write or a failed sync must not leave a
// fragment in front of records acknowledged afterwards, because the next
// Open truncates at the fragment. Either the fragment is rolled back and
// appends carry on, or — when the rollback fails too — every later
// append is refused. Reopening finds exactly the acknowledged records.
func TestFailedAppend(t *testing.T) {
	for name, fault := range map[string]flakyFile{
		"short write":                 {shortWrite: true},
		"failed sync":                 {failSync: true},
		"short write, rollback fails": {shortWrite: true, failTruncate: true},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			l := mustOpen(t, path)
			ff := &flakyFile{File: l.f.(*os.File)}
			l.f = ff
			if err := l.Append(rec{ID: "a", Done: true}); err != nil {
				t.Fatal(err)
			}
			ff.shortWrite, ff.failSync, ff.failTruncate = fault.shortWrite, fault.failSync, fault.failTruncate
			failed := l.Append(rec{ID: "lost", Done: true, Note: "never acknowledged"})
			if failed == nil {
				t.Fatal("failed append reported success")
			}
			*ff = flakyFile{File: ff.File} // the disk recovers
			err := l.Append(rec{ID: "c", Done: true})
			if sticky := fault.failTruncate; sticky && !errors.Is(err, failed) {
				t.Fatalf("append after a failed rollback = %v, want the first error again", err)
			} else if !sticky && err != nil {
				t.Fatalf("append after a rolled-back failure: %v", err)
			}
			acked := err == nil
			l.Close()

			l = mustOpen(t, path)
			defer l.Close()
			_, a := l.Completed("a")
			_, lost := l.Completed("lost")
			_, c := l.Completed("c")
			if !a || lost || c != acked {
				t.Fatalf("reopened: a=%v lost=%v c=%v (c acknowledged: %v)", a, lost, c, acked)
			}
		})
	}
}
