// Package experiment is the batch experiment engine of the toolkit: it
// expands a declarative specification into an algorithm × dataset ×
// hyper-parameter grid of jobs and runs them, with retry and
// checkpoint/resume, following the FlexDM shape (Flannery et al.,
// PAPERS.md) layered over the paper's FAEHIM services.
//
// A batch run has four pieces:
//
//   - Spec: the declarative experiment set, loadable from JSON (Expand
//     turns it into concrete Jobs, Materialize resolves its datasets);
//   - Executor: how one job runs — Local calls the in-process algorithm
//     substrates, Remote dispatches to SOAP classifier services discovered
//     through the registry;
//   - Run: the batch as a workflow graph without cables, one task per
//     job, on a workflow.Engine (bounded workers, monitoring, and the step
//     journal an interrupted batch resumes from), each job retried under
//     Retry with exponential backoff + jitter on transient errors;
//   - Aggregate/Report: per-job metrics rolled up into per-algorithm
//     mean±stddev summaries and a ranking table.
package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/arff"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// Task kinds a job can carry. Classification is the default and the only
// kind the remote executor supports (the paper's Classifier service).
const (
	taskClassify = "classify"
	taskCluster  = "cluster"
	taskAttrSel  = "attrsel"
)

// Spec is a declarative experiment set: every algorithm (with its
// hyper-parameter grid) is crossed with every dataset.
type Spec struct {
	Name string `json:"name"`
	// Folds is the cross-validation fold count for classify jobs
	// (default 10; values < 2 evaluate on the training data).
	Folds int `json:"folds,omitempty"`
	// Seed drives fold assignment and any stochastic algorithm defaults.
	Seed       int64           `json:"seed,omitempty"`
	Datasets   []DatasetSpec   `json:"datasets"`
	Algorithms []AlgorithmSpec `json:"algorithms"`
}

// DatasetSpec names one dataset and where it comes from: exactly one of
// Builtin (a datagen dataset), Path (an ARFF file) or ARFF (inline text).
type DatasetSpec struct {
	Name    string `json:"name"`
	Builtin string `json:"builtin,omitempty"`
	Path    string `json:"path,omitempty"`
	ARFF    string `json:"arff,omitempty"`
	// Class optionally re-designates the class attribute by name.
	Class string `json:"class,omitempty"`
}

// AlgorithmSpec is one algorithm plus its hyper-parameter grid; the grid's
// cartesian product yields one job per configuration per dataset.
type AlgorithmSpec struct {
	// Task is classify (default), cluster or attrsel.
	Task string `json:"task,omitempty"`
	Name string `json:"algorithm"`
	// Grid maps option name -> candidate values.
	Grid map[string][]string `json:"grid,omitempty"`
}

// Job is one concrete unit of work: train/evaluate one algorithm
// configuration on one dataset. ID is deterministic, so journal entries
// from a previous run of the same spec identify completed jobs.
type Job struct {
	ID        string            `json:"id"`
	Task      string            `json:"task"`
	Algorithm string            `json:"algorithm"`
	Dataset   string            `json:"dataset"`
	Options   map[string]string `json:"options,omitempty"`
	Folds     int               `json:"folds,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
}

// LoadSpec reads a Spec from a JSON file.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return parseSpec(b)
}

// parseSpec decodes a Spec from JSON and validates it.
func parseSpec(b []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("experiment: malformed spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if len(s.Datasets) == 0 {
		return fmt.Errorf("experiment: spec %q has no datasets", s.Name)
	}
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("experiment: spec %q has no algorithms", s.Name)
	}
	seen := map[string]bool{}
	for i, d := range s.Datasets {
		if d.Name == "" {
			return fmt.Errorf("experiment: dataset %d has no name", i)
		}
		if seen[d.Name] {
			return fmt.Errorf("experiment: duplicate dataset name %q", d.Name)
		}
		seen[d.Name] = true
		sources := 0
		for _, src := range []string{d.Builtin, d.Path, d.ARFF} {
			if src != "" {
				sources++
			}
		}
		if sources != 1 {
			return fmt.Errorf("experiment: dataset %q needs exactly one of builtin/path/arff", d.Name)
		}
	}
	for i, a := range s.Algorithms {
		if a.Name == "" {
			return fmt.Errorf("experiment: algorithm %d has no name", i)
		}
		switch a.Task {
		case "", taskClassify, taskCluster, taskAttrSel:
		default:
			return fmt.Errorf("experiment: algorithm %q: unknown task %q", a.Name, a.Task)
		}
	}
	return nil
}

// Expand produces the full job set: for each algorithm, the cartesian
// product of its grid, crossed with every dataset. Expansion order and job
// IDs are deterministic.
func (s *Spec) Expand() ([]Job, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	folds := s.Folds
	if folds == 0 {
		folds = 10
	}
	var jobs []Job
	for _, a := range s.Algorithms {
		task := a.Task
		if task == "" {
			task = taskClassify
		}
		for _, opts := range gridConfigs(a.Grid) {
			for _, d := range s.Datasets {
				j := Job{
					Task:      task,
					Algorithm: a.Name,
					Dataset:   d.Name,
					Options:   opts,
					Folds:     folds,
					Seed:      s.Seed,
				}
				j.ID = jobID(j)
				jobs = append(jobs, j)
			}
		}
	}
	return jobs, nil
}

// gridConfigs expands a grid into its cartesian product, iterating option
// names in sorted order so the expansion is deterministic. An empty grid
// yields one empty configuration.
func gridConfigs(grid map[string][]string) []map[string]string {
	if len(grid) == 0 {
		return []map[string]string{{}}
	}
	names := make([]string, 0, len(grid))
	for n := range grid {
		names = append(names, n)
	}
	sort.Strings(names)
	configs := []map[string]string{{}}
	for _, n := range names {
		values := grid[n]
		if len(values) == 0 {
			continue
		}
		next := make([]map[string]string, 0, len(configs)*len(values))
		for _, c := range configs {
			for _, v := range values {
				nc := make(map[string]string, len(c)+1)
				for k, cv := range c {
					nc[k] = cv
				}
				nc[n] = v
				next = append(next, nc)
			}
		}
		configs = next
	}
	return configs
}

// jobID derives the deterministic identity of a job:
// task:dataset/algorithm[opt=v,...] with options in sorted order.
func jobID(j Job) string {
	var b strings.Builder
	b.WriteString(j.Task)
	b.WriteByte(':')
	b.WriteString(j.Dataset)
	b.WriteByte('/')
	b.WriteString(j.Algorithm)
	if len(j.Options) > 0 {
		keys := make([]string, 0, len(j.Options))
		for k := range j.Options {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('[')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%s", k, j.Options[k])
		}
		b.WriteByte(']')
	}
	return b.String()
}

// builtinDatasets maps the names DatasetSpec.Builtin accepts to their
// datagen constructors.
func builtinDatasets(seed int64) map[string]func() *dataset.Dataset {
	return map[string]func() *dataset.Dataset{
		"breast-cancer":   datagen.BreastCancer,
		"weather":         datagen.Weather,
		"weather-numeric": datagen.WeatherNumeric,
		"contact-lenses":  datagen.ContactLenses,
		"iris":            func() *dataset.Dataset { return datagen.IrisLike(50, seed) },
	}
}

// builtinDatasetNames lists the datasets a spec can reference by Builtin.
func builtinDatasetNames() []string {
	m := builtinDatasets(0)
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Materialize resolves every DatasetSpec into a parsed dataset, keyed by
// spec name — Run hands each job the dataset it names.
func (s *Spec) Materialize() (map[string]*dataset.Dataset, error) {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	builtins := builtinDatasets(seed)
	out := make(map[string]*dataset.Dataset, len(s.Datasets))
	for _, ds := range s.Datasets {
		var d *dataset.Dataset
		var err error
		switch {
		case ds.Builtin != "":
			mk, ok := builtins[ds.Builtin]
			if !ok {
				return nil, fmt.Errorf("experiment: dataset %q: unknown builtin %q (known: %v)",
					ds.Name, ds.Builtin, builtinDatasetNames())
			}
			d = mk()
		case ds.Path != "":
			var f *os.File
			f, err = os.Open(ds.Path)
			if err != nil {
				return nil, fmt.Errorf("experiment: dataset %q: %w", ds.Name, err)
			}
			d, err = arff.Parse(f)
			f.Close()
		default:
			d, err = arff.ParseString(ds.ARFF)
		}
		if err != nil {
			return nil, fmt.Errorf("experiment: dataset %q: %w", ds.Name, err)
		}
		if ds.Class != "" {
			if err := d.SetClassByName(ds.Class); err != nil {
				return nil, fmt.Errorf("experiment: dataset %q: %w", ds.Name, err)
			}
		}
		out[ds.Name] = d
	}
	return out, nil
}
