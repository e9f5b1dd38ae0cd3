package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -report on a mistyped path must say so and leave no file behind.
func TestReportRefusesMissingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.jsonl")
	err := printReport(path)
	if err == nil || !strings.Contains(err.Error(), "no such journal") {
		t.Fatalf("printReport(missing) = %v, want a no-such-journal error", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("report created %s (stat: %v)", path, serr)
	}
}
