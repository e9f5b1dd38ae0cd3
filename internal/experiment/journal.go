package experiment

import (
	"time"

	"repro/internal/journal"
)

// Job statuses recorded in the journal and in JobResult.
const (
	StatusOK      = "ok"
	StatusFailed  = "failed"
	StatusSkipped = "skipped" // journal hit on resume; never written back
)

// Record is one journal line: the terminal outcome of one job attempt
// sequence. Algorithm/dataset are duplicated from the job so a report can
// be produced from the journal alone.
type Record struct {
	JobID     string    `json:"job"`
	Task      string    `json:"task,omitempty"`
	Algorithm string    `json:"algorithm,omitempty"`
	Dataset   string    `json:"dataset,omitempty"`
	Status    string    `json:"status"`
	Attempts  int       `json:"attempts"`
	Metrics   *Metrics  `json:"metrics,omitempty"`
	Error     string    `json:"error,omitempty"`
	Started   time.Time `json:"started"`
	WallMS    float64   `json:"wallMs"`
	TraceID   string    `json:"traceId,omitempty"`
}

// Journal is the append-only JSON-lines checkpoint of a batch (see
// internal/journal for the file discipline). Every terminal job outcome
// is one fsynced line, so a killed batch loses at most the jobs that were
// still in flight. Reopening the same path loads the completed set; the
// scheduler skips jobs whose ID has a StatusOK record (failed jobs are
// retried on resume).
type Journal = journal.Log[Record]

// OpenJournal opens (creating if absent) the journal at path and loads
// its existing records, dropping a torn or malformed tail.
func OpenJournal(path string) (*Journal, error) {
	return journal.Open(path, func(r Record) (string, bool) { return r.JobID, r.Status == StatusOK })
}
