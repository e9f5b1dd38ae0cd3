package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dmexp report on a mistyped path must say so and leave no file behind.
func TestReportRefusesMissingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.jsonl")
	_, err := report(path)
	if err == nil || !strings.Contains(err.Error(), "no such journal") {
		t.Fatalf("report(missing) = %v, want a no-such-journal error", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("report created %s (stat: %v)", path, serr)
	}
}

// dmexp report renders a journal written before a batch ran as a
// workflow graph exactly as the dmexp of that time did.
func TestReportRendersParentJournal(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "experiment", "testdata")
	want, err := os.ReadFile(filepath.Join(testdata, "parent-report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(testdata, "parent-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "batch.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := report(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("report differs from the parent's:\n%s\nwant:\n%s", got, want)
	}
}
