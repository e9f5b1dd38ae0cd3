package experiment

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/workflow"
)

// recordingExec runs nothing: it notes which jobs it was asked to run
// and reports a fixed accuracy for each.
type recordingExec struct {
	mu  sync.Mutex
	ids []string
}

func (r *recordingExec) Name() string { return "recording" }
func (r *recordingExec) Execute(ctx context.Context, t *Tries, job Job, _ *dataset.Dataset) (Metrics, error) {
	return t.Do(ctx, func(context.Context) (Metrics, error) {
		r.mu.Lock()
		r.ids = append(r.ids, job.ID)
		r.mu.Unlock()
		return Metrics{Accuracy: 0.5}, nil
	})
}

// copyTestdata copies a testdata file into a temporary directory, since
// opening a journal may append to it.
func copyTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBatchResumesParentJournal: testdata/parent-journal.jsonl was
// written by dmexp before a batch ran as a workflow graph, for
// testdata/parent-spec.json, and killed with SIGINT during its last job.
// It holds 9 completed jobs, 2 failed ones and the interrupted one.
// Resuming from it runs only those 3; the 9 are skipped with their
// journaled metrics, and a second resume runs nothing.
func TestBatchResumesParentJournal(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("testdata", "parent-spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	jobs, data := mustExpand(t, spec)
	path := copyTestdata(t, "parent-journal.jsonl")
	j, err := workflow.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 12 {
		t.Fatalf("parent journal loaded %d records, want 12", j.Len())
	}
	exec := &recordingExec{}
	results, err := Run(context.Background(), &workflow.Engine{Workers: 2}, jobs, data, exec, Retry{}, j)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(exec.ids)
	want := []string{
		"classify:breast-cancer/MultilayerPerceptron[epochs=2000]",
		"classify:breast-cancer/NoSuchClassifier",
		"classify:weather/NoSuchClassifier",
	}
	if len(exec.ids) != len(want) {
		t.Fatalf("resume ran %v, want %v", exec.ids, want)
	}
	for i := range want {
		if exec.ids[i] != want[i] {
			t.Fatalf("resume ran %v, want %v", exec.ids, want)
		}
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results, want %d", len(results), len(jobs))
	}
	skipped := 0
	for _, res := range results {
		switch res.Status {
		case StatusSkipped:
			skipped++
		case StatusOK:
		default:
			t.Fatalf("job %s: %s (%s)", res.Job.ID, res.Status, res.Err)
		}
		if res.Job.ID == "classify:weather/ZeroR" && (res.Status != StatusSkipped || res.Metrics.Accuracy != 0.6428571428571429) {
			t.Fatalf("weather/ZeroR = %+v, want skipped with its journaled accuracy", res)
		}
	}
	if skipped != 9 {
		t.Fatalf("%d skipped results, want 9", skipped)
	}

	again := &recordingExec{}
	if _, err := Run(context.Background(), &workflow.Engine{Workers: 2}, jobs, data, again, Retry{}, j); err != nil {
		t.Fatal(err)
	}
	if len(again.ids) != 0 {
		t.Fatalf("second resume ran %v, want nothing", again.ids)
	}
	for _, res := range ResultsFromRecords(j.Records()) {
		if res.Status != StatusOK {
			t.Fatalf("journal's latest record for %s is %s", res.Job.ID, res.Status)
		}
	}
}
