package workflow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// Step statuses recorded in the journal.
const (
	StepOK     = "ok"
	StepFailed = "failed"
)

// StepRecord is one journal line: the terminal outcome of one task
// execution, with enough state (the output Values) to replay the step on
// resume without re-invoking its unit. InputDigest keys the memoization:
// a resumed run replays a completed step only when the step would run
// with byte-identical inputs, so editing an upstream param or dataset
// invalidates everything downstream of it.
type StepRecord struct {
	Step        string    `json:"step"`
	Unit        string    `json:"unit,omitempty"`
	Status      string    `json:"status"`
	InputDigest string    `json:"inputDigest"`
	Outputs     Values    `json:"outputs,omitempty"`
	Attempts    int       `json:"attempts"`
	HedgeWins   int64     `json:"hedgeWins,omitempty"`
	Error       string    `json:"error,omitempty"`
	Started     time.Time `json:"started"`
	WallMS      float64   `json:"wallMs"`
	TraceID     string    `json:"traceId,omitempty"`
}

// UnmarshalJSON reads a step line, and also a job line of the journal
// dmexp wrote before a batch ran as a workflow graph:
//
//	{"job":"classify:weather/J48","algorithm":"J48","status":"ok","attempts":1,"metrics":{…},…}
//
// The job ID becomes the step, the algorithm the unit and the metrics
// object the "metrics" output, which is where a batch's job steps keep
// them. Such a record has no input digest.
func (r *StepRecord) UnmarshalJSON(b []byte) error {
	type step StepRecord // drops this method, so the fields decode plainly
	var v struct {
		step
		Job       string          `json:"job"`
		Algorithm string          `json:"algorithm"`
		Metrics   json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*r = StepRecord(v.step)
	if r.Step == "" && v.Job != "" {
		r.Step, r.Unit = v.Job, v.Algorithm
		if len(v.Metrics) > 0 {
			r.Outputs = Values{"metrics": string(v.Metrics)}
		}
	}
	return nil
}

// Journal is the append-only JSON-lines checkpoint of a workflow run (see
// internal/journal for the file discipline). Every terminal step outcome
// is one fsynced line, so a killed enactor loses at most the steps that
// were still in flight; reopening the same path and passing it to
// Engine.Resume replays the completed steps' outputs and re-runs only the
// rest.
type Journal = journal.Log[StepRecord]

// OpenJournal opens (creating if absent) the step journal at path and
// loads its existing records, dropping a torn or malformed tail.
func OpenJournal(path string) (*Journal, error) {
	return journal.Open(path, func(r StepRecord) (string, bool) { return r.Step, r.Status == StepOK })
}

type attemptsKey struct{}

// CountAttempt tells the engine that the step running under ctx made one
// more attempt at its work. A unit that retries calls it once per
// attempt, and the journal records the count in StepRecord.Attempts; a
// step whose unit never calls it is journaled with one attempt.
func CountAttempt(ctx context.Context) {
	if n, ok := ctx.Value(attemptsKey{}).(*atomic.Int64); ok {
		n.Add(1)
	}
}

// StepDigest fingerprints a task execution: the unit's identity (its
// serialised spec when it has one, its name otherwise) plus every input
// value the step would run with, in sorted order. Two executions with
// the same digest are interchangeable for memoization — same tool, same
// configuration, same inputs.
func StepDigest(u Unit, in Values) string {
	h := sha256.New()
	if sp, ok := u.(Specced); ok {
		spec := sp.Spec()
		writeKV(h, "kind", spec.Kind)
		keys := make([]string, 0, len(spec.Config))
		for k := range spec.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeKV(h, "cfg."+k, spec.Config[k])
		}
	} else {
		writeKV(h, "unit", u.Name())
	}
	keys := make([]string, 0, len(in))
	for k := range in {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeKV(h, "in."+k, in[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeKV hashes one length-prefixed key/value pair, so adjacent fields
// cannot collide by concatenation.
func writeKV(h io.Writer, k, v string) {
	fmt.Fprintf(h, "%d:%s=%d:%s;", len(k), k, len(v), v)
}
