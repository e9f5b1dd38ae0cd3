package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attrsel"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/dataset"
)

// Metrics are the per-job measurements an executor produces. Accuracy,
// kappa and error rate are filled for classification; other task kinds
// report through Extra (silhouette, SSE, purity, merit, ...).
type Metrics struct {
	Accuracy  float64            `json:"accuracy,omitempty"`
	Kappa     float64            `json:"kappa,omitempty"`
	ErrorRate float64            `json:"errorRate,omitempty"`
	Extra     map[string]float64 `json:"extra,omitempty"`
}

// JobResult is the terminal outcome of one job in a batch run.
type JobResult struct {
	Job      Job
	Status   string // StatusOK, StatusFailed or StatusSkipped
	Attempts int
	Metrics  Metrics
	Err      string
	Wall     time.Duration
}

// Executor runs jobs against their datasets, retrying under the batch's
// Retry. Implementations must be safe for concurrent use: a batch runs
// many jobs at once.
type Executor interface {
	// Name labels the executor in reports ("local", "remote").
	Name() string
	// Execute runs the job to completion or ctx expiry, making its
	// attempts through t. Errors that resilience.ClassifyErr calls
	// retryable (resilience.Transient marks any error so) are retried;
	// anything else fails the job immediately.
	Execute(ctx context.Context, t *Tries, job Job, d *dataset.Dataset) (Metrics, error)
}

// Local executes jobs in-process against the algorithm substrates:
// classify jobs run stratified cross-validation, cluster jobs build and
// score the clustering, attrsel jobs rank attributes.
type Local struct{}

// Name implements Executor.
func (Local) Name() string { return "local" }

// Execute implements Executor: every attempt is one Attempt.
func (l Local) Execute(ctx context.Context, t *Tries, job Job, d *dataset.Dataset) (Metrics, error) {
	return t.Do(ctx, func(ctx context.Context) (Metrics, error) { return l.Attempt(ctx, job, d) })
}

// Attempt makes one in-process attempt at the job.
func (Local) Attempt(ctx context.Context, job Job, d *dataset.Dataset) (Metrics, error) {
	if d == nil {
		return Metrics{}, fmt.Errorf("experiment: job %s: no dataset %q", job.ID, job.Dataset)
	}
	switch job.Task {
	case "", taskClassify:
		return localClassify(ctx, job, d)
	case taskCluster:
		return localCluster(ctx, job, d)
	case taskAttrSel:
		return localAttrSel(ctx, job, d)
	default:
		return Metrics{}, fmt.Errorf("experiment: job %s: unknown task %q", job.ID, job.Task)
	}
}

// localClassify cross-validates the configured classifier through
// classify.CrossValidateContext, so a per-job timeout interrupts
// long CPU-bound training and folds run in parallel.
// With Folds < 2 the classifier is trained and evaluated on the full
// dataset (resubstitution), matching the Classifier service's
// classifyInstance semantics.
func localClassify(ctx context.Context, job Job, d *dataset.Dataset) (Metrics, error) {
	factory, err := classify.Registry.Factory(job.Algorithm, job.Options)
	if err != nil {
		return Metrics{}, err
	}
	if job.Folds < 2 {
		c := factory()
		ev, err := classify.NewEvaluation(d)
		if err != nil {
			return Metrics{}, err
		}
		if err := classify.TrainWith(ctx, c, d); err != nil {
			return Metrics{}, err
		}
		if err := ev.TestModel(c, d); err != nil {
			return Metrics{}, err
		}
		return classifyMetrics(ev), nil
	}
	seed := job.Seed
	if seed == 0 {
		seed = 1
	}
	k := job.Folds
	if k > d.NumInstances() {
		k = d.NumInstances()
	}
	ev, err := classify.CrossValidateContext(ctx, factory, d, k, seed)
	if err != nil {
		return Metrics{}, err
	}
	return classifyMetrics(ev), nil
}

func classifyMetrics(ev *classify.Evaluation) Metrics {
	return Metrics{Accuracy: ev.Accuracy(), Kappa: ev.Kappa(), ErrorRate: ev.ErrorRate()}
}

// localCluster builds the configured clusterer and scores it with the
// internal (and, when a class is designated, external) cluster measures.
func localCluster(ctx context.Context, job Job, d *dataset.Dataset) (Metrics, error) {
	c, err := cluster.Registry.Build(job.Algorithm, job.Options)
	if err != nil {
		return Metrics{}, err
	}
	if err := cluster.BuildWith(ctx, c, d); err != nil {
		return Metrics{}, err
	}
	assign, err := cluster.Assignments(c, d)
	if err != nil {
		return Metrics{}, err
	}
	extra := map[string]float64{"clusters": float64(c.NumClusters())}
	if sse, err := cluster.SSE(d, assign, c.NumClusters()); err == nil {
		extra["sse"] = sse
	}
	if sil, err := cluster.Silhouette(d, assign, c.NumClusters()); err == nil {
		extra["silhouette"] = sil
	}
	m := Metrics{Extra: extra}
	if ca := d.ClassAttribute(); ca != nil && ca.IsNominal() {
		if p, err := cluster.Purity(d, assign, c.NumClusters()); err == nil {
			extra["purity"] = p
			// Purity doubles as the accuracy column so cluster jobs sort
			// meaningfully in the ranking table.
			m.Accuracy = p
		}
	}
	return m, nil
}

// localAttrSel ranks the dataset's attributes with the named evaluator and
// reports the best merit plus the candidate count.
func localAttrSel(ctx context.Context, job Job, d *dataset.Dataset) (Metrics, error) {
	eval, err := attrsel.NewAttributeEvaluator(job.Algorithm)
	if err != nil {
		return Metrics{}, err
	}
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	ranking, err := attrsel.RankAttributes(ctx, eval, d)
	if err != nil {
		return Metrics{}, err
	}
	extra := map[string]float64{"attributes": float64(len(ranking.Columns))}
	if len(ranking.Merits) > 0 {
		extra["topMerit"] = ranking.Merits[0]
	}
	return Metrics{Extra: extra}, nil
}
