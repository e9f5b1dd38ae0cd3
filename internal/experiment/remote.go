package experiment

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/arff"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/soap"
)

// Remote dispatches classify jobs to SOAP classifier services — the
// paper's general Classifier Web Service (§4.1) — spreading jobs over a
// health-aware endpoint pool so one spec fans out across remote machines.
// Each endpoint sits behind a circuit breaker: endpoints that keep
// failing are ejected from the rotation until their cooldown, and a
// registry-discovered Remote re-inquires periodically so newly published
// services join and withdrawn ones leave (the paper's UDDI failover).
// Calls go through the typed core.Client facade: each job becomes one
// At(endpoint).Train invocation (the Classifier service's classifyInstance op —
// dataset ARFF + classifier + options JSON + class attribute), and the
// returned accuracy becomes the job metric.
// Note the service evaluates on its training data (resubstitution), not by
// cross-validation; use Local when fold-based estimates matter.
type Remote struct {
	// Client overrides the package-level default SOAP client when set.
	Client *soap.Client
	// Breaker tunes the per-endpoint circuit breakers; the zero value
	// uses the resilience defaults. Set before the first Execute.
	Breaker resilience.BreakerConfig
	// RefreshInterval bounds how often a registry-discovered Remote
	// re-inquires for endpoints; 0 uses the pool default.
	RefreshInterval time.Duration
	// Observer receives the pool and breaker metrics; nil means obs.Default.
	Observer *obs.Registry

	endpoints []string
	source    resilience.SourceFunc

	poolOnce sync.Once
	pool     *resilience.Pool

	typedOnce sync.Once
	typed     *core.Client

	mu     sync.Mutex
	arff   map[string]string   // dataset name -> formatted ARFF text
	failed map[string][]string // job ID -> endpoints that failed this job
}

// NewRemote returns a remote executor over fixed service endpoints.
func NewRemote(endpoints ...string) (*Remote, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("experiment: remote executor needs at least one endpoint")
	}
	return &Remote{endpoints: endpoints, arff: map[string]string{}, failed: map[string][]string{}}, nil
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

// ensurePool builds the endpoint pool on first use, after the caller has
// had the chance to set Breaker/Observer/RefreshInterval.
func (r *Remote) ensurePool() *resilience.Pool {
	r.poolOnce.Do(func() {
		opts := []resilience.PoolOption{
			resilience.WithObserver(r.observer()),
			resilience.WithBreakerConfig(r.Breaker),
		}
		if r.source != nil {
			opts = append(opts, resilience.WithSource(r.source))
		}
		if r.RefreshInterval > 0 {
			opts = append(opts, resilience.WithRefreshInterval(r.RefreshInterval))
		}
		r.pool = resilience.NewPool(r.endpoints, opts...)
	})
	return r.pool
}

// typedClient builds the core.Client facade jobs are dispatched
// through, honouring a caller-supplied SOAP client. The base URL is
// irrelevant — every call is pinned with At to an explicit
// endpoint from the pool.
func (r *Remote) typedClient() *core.Client {
	r.typedOnce.Do(func() {
		if r.Client != nil {
			r.typed = core.NewClient("", core.WithSOAPClient(r.Client))
		} else {
			r.typed = core.NewClient("")
		}
	})
	return r.typed
}

func (r *Remote) observer() *obs.Registry {
	if r.Observer != nil {
		return r.Observer
	}
	return obs.Default
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

// failedFor returns the endpoints that already failed this job, so the
// scheduler's next attempt lands somewhere else.
func (r *Remote) failedFor(jobID string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.failed[jobID]...)
}

func (r *Remote) markFailed(jobID, endpoint string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed[jobID] = append(r.failed[jobID], endpoint)
}

func (r *Remote) clearFailed(jobID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.failed, jobID)
}

// Execute implements Executor: one classifyInstance call per job, against
// a healthy endpoint the job has not already failed on. Transport
// failures and soap:Server faults surface as transient (the scheduler
// retries them, routed to a different endpoint); soap:Client faults are
// permanent. When every endpoint's breaker is open the pool consults its
// registry source for replacements before giving up for this attempt.
func (r *Remote) Execute(ctx context.Context, job Job, d *dataset.Dataset) (Metrics, error) {
	if job.Task != "" && job.Task != TaskClassify {
		return Metrics{}, fmt.Errorf("experiment: remote executor supports classify jobs only, not %q", job.Task)
	}
	if d == nil {
		return Metrics{}, fmt.Errorf("experiment: job %s: no dataset %q", job.ID, job.Dataset)
	}
	pool := r.ensurePool()
	pool.MaybeRefresh(ctx)
	endpoint, err := pool.Pick(r.failedFor(job.ID)...)
	if err != nil {
		// All breakers open: ask the registry for fresh endpoints once,
		// then report a transient failure so the scheduler backs off.
		_ = pool.Refresh(ctx)
		if endpoint, err = pool.Pick(r.failedFor(job.ID)...); err != nil {
			return Metrics{}, resilience.Transient(fmt.Errorf("experiment: job %s: %w", job.ID, err))
		}
	}
	class := ""
	if ca := d.ClassAttribute(); ca != nil {
		class = ca.Name
	}
	res, err := r.typedClient().At(endpoint).Train(ctx, core.TrainOptions{
		DatasetARFF: r.arffText(job.Dataset, d),
		Classifier:  job.Algorithm,
		Options:     job.Options,
		Class:       class,
	})
	pool.Record(endpoint, err)
	if err != nil {
		if resilience.ClassifyErr(err).Retries() {
			r.markFailed(job.ID, endpoint)
		}
		return Metrics{}, err // the scheduler's policy classifies faults vs transport errors
	}
	r.clearFailed(job.ID)
	return Metrics{Accuracy: res.Accuracy, ErrorRate: 1 - res.Accuracy}, nil
}
