package workflow

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

func TestJournalAppendAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []StepRecord{
		{Step: "a", Unit: "A", Status: StepOK, InputDigest: "d1",
			Outputs: Values{"x": "1"}, Attempts: 1, Started: time.Now(), WallMS: 1.5},
		{Step: "b", Unit: "B", Status: StepFailed, InputDigest: "d2",
			Error: "boom", Attempts: 3, Started: time.Now()},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("reloaded %d records, want 2", j2.Len())
	}
	rec, ok := j2.Completed("a")
	if !ok || rec.InputDigest != "d1" || rec.Outputs["x"] != "1" {
		t.Fatalf("Completed(a) = %+v, %v", rec, ok)
	}
	// Failed steps must not be treated as complete.
	if _, ok := j2.Completed("b"); ok {
		t.Fatal("failed step b reported as completed")
	}
}

// TestStepDigestSensitivity: the digest must change with the unit's
// configuration and with any input value, and must not depend on map
// iteration order.
func TestStepDigestSensitivity(t *testing.T) {
	mk := func(vals Values) *ConstUnit {
		return &ConstUnit{UnitName: "src", Values: vals}
	}
	base := StepDigest(mk(Values{"v": "1"}), Values{"a": "x", "b": "y"})
	if got := StepDigest(mk(Values{"v": "1"}), Values{"b": "y", "a": "x"}); got != base {
		t.Fatalf("digest depends on input insertion order: %s vs %s", got, base)
	}
	if got := StepDigest(mk(Values{"v": "2"}), Values{"a": "x", "b": "y"}); got == base {
		t.Fatal("digest ignores unit config")
	}
	if got := StepDigest(mk(Values{"v": "1"}), Values{"a": "x", "b": "z"}); got == base {
		t.Fatal("digest ignores input values")
	}
	// Key/value boundaries must not collide by concatenation.
	if StepDigest(mk(Values{"v": "1"}), Values{"ab": "c"}) ==
		StepDigest(mk(Values{"v": "1"}), Values{"a": "bc"}) {
		t.Fatal("digest collides across key/value boundaries")
	}
	// Units without a Spec fall back to their name.
	f1 := &FuncUnit{UnitName: "f1", Fn: func(ctx context.Context, in Values) (Values, error) { return nil, nil }}
	f2 := &FuncUnit{UnitName: "f2", Fn: f1.Fn}
	if StepDigest(f1, Values{}) == StepDigest(f2, Values{}) {
		t.Fatal("digest ignores unit name for unspecced units")
	}
}
