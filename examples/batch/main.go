// Example batch demonstrates the experiment engine: a 24-job
// multi-classifier sweep (4 algorithms × 3 configurations × 2 datasets)
// over the bundled datasets, run three ways —
//
//  1. locally across all cores through the in-process executor,
//  2. with injected transient faults, showing retry with backoff bringing
//     the batch home and the attempt counts surfacing in the report,
//  3. remotely, against Classifier Web Services hosted in this process and
//     discovered through the UDDI-style registry (the paper's composition
//     loop, driven at batch scale).
//
// Run with: go run ./examples/batch
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/harness"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/services"
	"repro/internal/workflow"
)

func spec() *experiment.Spec {
	return &experiment.Spec{
		Name:  "multi-classifier-sweep",
		Folds: 10,
		Seed:  7,
		Datasets: []experiment.DatasetSpec{
			{Name: "breast-cancer", Builtin: "breast-cancer"},
			{Name: "contact-lenses", Builtin: "contact-lenses"},
		},
		Algorithms: []experiment.AlgorithmSpec{
			{Name: "J48", Grid: map[string][]string{"confidenceFactor": {"0.1", "0.25", "0.5"}}},
			{Name: "IBk", Grid: map[string][]string{"k": {"1", "3", "5"}}},
			{Name: "OneR", Grid: map[string][]string{"minBucket": {"3", "6", "9"}}},
			{Name: "Logistic", Grid: map[string][]string{"lambda": {"0", "0.0001", "0.01"}}},
		},
	}
}

func main() {
	s := spec()
	jobs, err := s.Expand()
	if err != nil {
		log.Fatal(err)
	}
	data, err := s.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spec %q expands to %d jobs\n\n", s.Name, len(jobs))

	// --- 1. Local parallel run across all cores.
	fmt.Println("=== Local run (in-process executor, NumCPU workers) ===")
	eng := workflow.NewEngine() // experiment.Run bounds it at NumCPU
	began := time.Now()
	results, err := experiment.Run(context.Background(), eng, jobs, data, experiment.Local{}, experiment.Retry{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiment.Report(results))
	fmt.Printf("completed in %s\n\n", time.Since(began).Round(time.Millisecond))

	// --- 2. The same batch with a 30% transient fault rate injected.
	fmt.Println("=== Fault-injected run (30% transient failures, retried with backoff) ===")
	flaky := &flakyExecutor{failProb: 0.3, rng: rand.New(rand.NewSource(11))}
	retry := experiment.Retry{MaxRetries: 4, BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond}
	results2, err := experiment.Run(context.Background(), eng, jobs, data, flaky, retry, nil)
	if err != nil {
		log.Fatal(err)
	}
	retried, failed := 0, 0
	for _, res := range results2 {
		if res.Attempts > 1 {
			retried++
		}
		if res.Status == experiment.StatusFailed {
			failed++
		}
	}
	fmt.Printf("%d/%d jobs needed retries, %d failed permanently\n\n", retried, len(results2), failed)

	// --- 3. Remote dispatch: host two Classifier services, publish them in
	// the registry, discover, and fan the same spec out over SOAP.
	fmt.Println("=== Remote run (SOAP classifier services via registry discovery) ===")
	reg := registry.New()
	regSrv := httptest.NewServer(reg.Handler())
	defer regSrv.Close()
	for i := 0; i < 2; i++ {
		mux := http.NewServeMux()
		svcSrv := httptest.NewServer(mux)
		defer svcSrv.Close()
		paths := services.Host(mux, svcSrv.URL, services.NewClassifierService(harness.NewCachedBackend(32)))
		if err := reg.Publish(registry.Entry{
			Name:     fmt.Sprintf("Classifier-%d", i+1),
			Category: "classifier",
			Endpoint: svcSrv.URL + paths["Classifier"],
		}); err != nil {
			log.Fatal(err)
		}
	}
	remote, err := experiment.DiscoverRemote(regSrv.URL, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered %d classifier services\n", len(remote.Endpoints()))
	began = time.Now()
	results3, err := experiment.Run(context.Background(), eng, jobs, data, remote,
		experiment.Retry{JobTimeout: time.Minute}, nil)
	if err != nil {
		log.Fatal(err)
	}
	ok := 0
	for _, res := range results3 {
		if res.Status == experiment.StatusOK {
			ok++
		}
	}
	fmt.Printf("%d/%d jobs completed remotely in %s\n", ok, len(results3), time.Since(began).Round(time.Millisecond))
	for _, g := range experiment.Aggregate(results3) {
		fmt.Printf("  %-10s mean accuracy %.4f (resubstitution, %d jobs)\n", g.Algorithm, g.MeanAcc, g.Jobs)
	}
}

// flakyExecutor injects transient faults into local attempts with
// probability failProb.
type flakyExecutor struct {
	failProb float64

	mu  sync.Mutex
	rng *rand.Rand
}

func (f *flakyExecutor) Name() string { return "flaky-local" }

func (f *flakyExecutor) Execute(ctx context.Context, t *experiment.Tries, job experiment.Job, d *dataset.Dataset) (experiment.Metrics, error) {
	return t.Do(ctx, func(ctx context.Context) (experiment.Metrics, error) {
		f.mu.Lock()
		fail := f.rng.Float64() < f.failProb
		f.mu.Unlock()
		if fail {
			return experiment.Metrics{}, resilience.Transient(fmt.Errorf("injected transient fault for %s", job.ID))
		}
		return experiment.Local{}.Attempt(ctx, job, d)
	})
}
