package experiment

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/arff"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/resilience"
)

// Remote dispatches classify jobs to SOAP classifier services — the
// paper's general Classifier Web Service (§4.1) — spreading jobs over a
// health-aware endpoint pool so one spec fans out across remote machines.
// Each endpoint sits behind a circuit breaker: endpoints that keep
// failing are ejected from the rotation until their cooldown, and a
// registry-discovered Remote re-inquires periodically so newly published
// services join and withdrawn ones leave (the paper's UDDI failover).
// The pool's Do is a remote job's only retry loop: each attempt goes to
// a healthy endpoint the job has not yet failed on.
// Calls go through the typed core.Client facade: each job becomes one
// At(endpoint).Train invocation (the Classifier service's classifyInstance op —
// dataset ARFF + classifier + options JSON + class attribute), and the
// returned accuracy becomes the job metric.
// Note the service evaluates on its training data (resubstitution), not by
// cross-validation; use Local when fold-based estimates matter.
type Remote struct {
	// Breaker tunes the per-endpoint circuit breakers; the zero value
	// uses the resilience defaults. Set before the first Execute.
	Breaker resilience.BreakerConfig

	endpoints []string
	source    resilience.SourceFunc

	once  sync.Once
	pool  *resilience.Pool
	typed *core.Client

	mu   sync.Mutex
	arff map[string]string // dataset name -> formatted ARFF text
}

// NewRemote returns a remote executor over fixed service endpoints.
func NewRemote(endpoints ...string) (*Remote, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("experiment: remote executor needs at least one endpoint")
	}
	return &Remote{endpoints: endpoints, arff: map[string]string{}}, nil
}

// DiscoverRemote builds a remote executor from every classifier-category
// service published in the registry at registryURL — the paper's UDDI
// inquiry step. The registry stays attached as the executor's endpoint
// source, so the pool re-inquires as endpoints fail or the refresh
// interval elapses. httpClient may be nil for the default.
func DiscoverRemote(registryURL string, httpClient *http.Client) (*Remote, error) {
	rc := &registry.Client{BaseURL: registryURL, HTTPClient: httpClient,
		Policy: &resilience.Policy{}}
	// Name-filtered: algorithm-specific services (J48, …) share the
	// classifier category but not the generic classifyInstance interface.
	entries, err := rc.Inquire("Classifier", "classifier")
	if err != nil {
		return nil, fmt.Errorf("experiment: discovering classifier services: %w", err)
	}
	var endpoints []string
	for _, e := range entries {
		if e.Endpoint != "" {
			endpoints = append(endpoints, e.Endpoint)
		}
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("experiment: registry %s lists no classifier services", registryURL)
	}
	r, err := NewRemote(endpoints...)
	if err != nil {
		return nil, err
	}
	r.source = rc.EndpointSource("Classifier", "classifier")
	return r, nil
}

// ensurePool builds the endpoint pool, and the core.Client facade jobs
// are dispatched through, on first use: after the caller has had the
// chance to set Breaker. The facade's base URL is irrelevant: every call
// is pinned with At to an endpoint from the pool.
func (r *Remote) ensurePool() *resilience.Pool {
	r.once.Do(func() {
		opts := []resilience.PoolOption{resilience.WithBreakerConfig(r.Breaker)}
		if r.source != nil {
			opts = append(opts, resilience.WithSource(r.source))
		}
		r.pool = resilience.NewPool(r.endpoints, opts...)
		r.typed = core.NewClient("")
	})
	return r.pool
}

// Endpoints returns the service endpoints jobs are spread across.
func (r *Remote) Endpoints() []string { return r.ensurePool().Endpoints() }

// Name implements Executor.
func (r *Remote) Name() string { return "remote" }

// arffText formats (once per dataset) the ARFF document sent on the wire.
func (r *Remote) arffText(name string, d *dataset.Dataset) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if text, ok := r.arff[name]; ok {
		return text
	}
	text := arff.Format(d)
	r.arff[name] = text
	return text
}

// Execute implements Executor: the job's attempts go through the
// endpoint pool's Do under t's policy, each attempt one classifyInstance
// call on a healthy endpoint the job has not yet failed on. Transport
// failures and soap:Server faults are retryable, soap:Client faults
// permanent (resilience.ClassifyErr).
func (r *Remote) Execute(ctx context.Context, t *Tries, job Job, d *dataset.Dataset) (Metrics, error) {
	if job.Task != "" && job.Task != taskClassify {
		return Metrics{}, fmt.Errorf("experiment: remote executor supports classify jobs only, not %q", job.Task)
	}
	if d == nil {
		return Metrics{}, fmt.Errorf("experiment: job %s: no dataset %q", job.ID, job.Dataset)
	}
	pool := r.ensurePool()
	opts := core.TrainOptions{
		DatasetARFF: r.arffText(job.Dataset, d),
		Classifier:  job.Algorithm,
		Options:     job.Options,
	}
	if ca := d.ClassAttribute(); ca != nil {
		opts.Class = ca.Name
	}
	var m Metrics
	_, err := pool.Do(ctx, t.Policy, nil, func(ctx context.Context, endpoint string) (err error) {
		m, err = t.Try(ctx, func(ctx context.Context) (Metrics, error) {
			res, err := r.typed.At(endpoint).Train(ctx, opts)
			if err != nil {
				return Metrics{}, err
			}
			return Metrics{Accuracy: res.Accuracy, ErrorRate: 1 - res.Accuracy}, nil
		})
		return err
	})
	return m, err
}
