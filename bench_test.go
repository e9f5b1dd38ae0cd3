// Package repro_test is the benchmark harness: one benchmark per figure,
// table or quantified claim of the paper (see DESIGN.md's experiment index
// E1-E15), plus the ablation benches DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// The headline systems result is §4.5: BenchmarkInvocation/serialising vs
// BenchmarkInvocation/cached reproduces the "significant performance
// penalty" of rebuilding the algorithm object from its serialised state on
// disk on every invocation, and the in-memory harness that removes it.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arff"
	"repro/internal/assoc"
	"repro/internal/attrsel"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/signal"
	"repro/internal/soap"
	"repro/internal/stream"
	"repro/internal/viz"
	"repro/internal/wire"
	"repro/internal/workflow"
)

// --- E3 (Figure 3): dataset statistics ---

func BenchmarkDatasetSummary(b *testing.B) {
	d := datagen.BreastCancer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := dataset.Summarize(d)
		if s.NumInstances != 286 {
			b.Fatal("wrong summary")
		}
	}
}

// --- E4 (Figure 4): J48 on breast-cancer ---

func BenchmarkJ48BreastCancer(b *testing.B) {
	d := datagen.BreastCancer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := classify.NewJ48()
		if err := j.Train(d); err != nil {
			b.Fatal(err)
		}
		if j.Tree().AttrName != "node-caps" {
			b.Fatal("unexpected root")
		}
	}
}

// Ablation: pruning on/off (DESIGN.md).
func BenchmarkJ48Pruning(b *testing.B) {
	d := datagen.BreastCancer()
	for _, unpruned := range []bool{false, true} {
		name := "pruned"
		if unpruned {
			name = "unpruned"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := classify.NewJ48()
				j.Unpruned = unpruned
				if err := j.Train(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: split criterion — C4.5's gain ratio vs raw information gain
// (the ID3 bias towards many-valued attributes).
func BenchmarkJ48SplitCriterion(b *testing.B) {
	d := datagen.BreastCancer()
	for _, ig := range []bool{false, true} {
		name := "gainRatio"
		if ig {
			name = "infoGain"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := classify.NewJ48()
				j.UseInfoGain = ig
				if err := j.Train(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5 (§4.5): per-invocation serialisation vs the in-memory harness ---

func invocationBench(b *testing.B, backend harness.Backend) {
	b.Helper()
	d := datagen.BreastCancer()
	build := func() (classify.Classifier, error) {
		j := classify.NewJ48()
		if err := j.Train(d); err != nil {
			return nil, err
		}
		return j, nil
	}
	probe := d.Instances[0]
	// Warm: first invocation builds/trains once outside the timing loop.
	if err := harness.Invoke(backend, "j48", build, func(c classify.Classifier) error {
		_, err := classify.Predict(c, probe)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := harness.Invoke(backend, "j48", build, func(c classify.Classifier) error {
			_, err := classify.Predict(c, probe)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvocation(b *testing.B) {
	b.Run("serialising", func(b *testing.B) {
		store, err := model.NewStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		invocationBench(b, &harness.SerialisingBackend{Store: store})
	})
	b.Run("cached", func(b *testing.B) {
		invocationBench(b, harness.NewCachedBackend(16))
	})
}

// Ablation: harness pool size under a rotating key workload (DESIGN.md).
func BenchmarkCachedBackendSizes(b *testing.B) {
	d := datagen.BreastCancer()
	build := func() (classify.Classifier, error) {
		j := classify.NewJ48()
		if err := j.Train(d); err != nil {
			return nil, err
		}
		return j, nil
	}
	const distinctKeys = 8
	for _, size := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("pool%d", size), func(b *testing.B) {
			backend := harness.NewCachedBackend(size)
			probe := d.Instances[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("model-%d", i%distinctKeys)
				if err := harness.Invoke(backend, key, build, func(c classify.Classifier) error {
					_, err := classify.Predict(c, probe)
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Sweep: the serialisation penalty grows with model size (larger training
// sets -> bigger trees -> costlier per-call round trips), while the cached
// harness stays flat — the crossover story behind §4.5.
func BenchmarkInvocationByModelSize(b *testing.B) {
	for _, n := range []int{200, 1000, 5000} {
		d := datagen.RandomNominal(n, 12, 4, 0.3, 21)
		build := func() (classify.Classifier, error) {
			j := classify.NewJ48()
			j.Unpruned = true
			if err := j.Train(d); err != nil {
				return nil, err
			}
			return j, nil
		}
		probe := d.Instances[0]
		b.Run(fmt.Sprintf("serialising/n%d", n), func(b *testing.B) {
			store, err := model.NewStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			backend := &harness.SerialisingBackend{Store: store}
			if err := harness.Invoke(backend, "m", build, func(classify.Classifier) error { return nil }); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := harness.Invoke(backend, "m", build, func(c classify.Classifier) error {
					_, err := classify.Predict(c, probe)
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("cached/n%d", n), func(b *testing.B) {
			backend := harness.NewCachedBackend(4)
			if err := harness.Invoke(backend, "m", build, func(classify.Classifier) error { return nil }); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := harness.Invoke(backend, "m", build, func(c classify.Classifier) error {
					_, err := classify.Predict(c, probe)
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: the general Classifier service over live SOAP ---

func BenchmarkClassifyRoundtrip(b *testing.B) {
	dep, err := core.Deploy("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	arffText := arff.Format(datagen.BreastCancer())
	url := dep.EndpointURL("Classifier")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := soap.CallContext(context.Background(), url, "classifyInstance", map[string]string{
			"dataset": arffText, "classifier": "J48", "attribute": "Class",
		})
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out["model"], "node-caps") {
			b.Fatal("bad model")
		}
	}
}

// Ablation: SOAP envelope encode/decode cost (DESIGN.md), on the paper's
// textual payload (the 286-instance ARFF) and on the binary data plane's
// (one 4096-row x 11-attribute dmb1 block, the classify_bulk request).
func BenchmarkSOAPEncode(b *testing.B) {
	block, err := wire.MarshalBase64(datagen.RandomNominal(4096, 10, 4, 0.3, 21))
	if err != nil {
		b.Fatal(err)
	}
	for _, msg := range []soap.Message{
		{Operation: "classifyInstance", Parts: map[string]string{
			"dataset": arff.Format(datagen.BreastCancer()), "classifier": "J48", "attribute": "Class"}},
		{Operation: "classifyBatch", Parts: map[string]string{
			"session": "s-0123456789abcdef", "payload": block, "encoding": wire.Encoding}},
	} {
		b.Run(msg.Operation, func(b *testing.B) {
			raw, err := soap.Marshal(msg)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				raw, err := soap.Marshal(msg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := soap.Unmarshal(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E1 (Figure 1): the composed case-study workflow end to end ---

func BenchmarkCaseStudyWorkflow(b *testing.B) {
	dep, err := core.Deploy("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	tk := core.NewToolkit()
	arffText := arff.Format(datagen.BreastCancer())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, viewer, err := core.BuildCaseStudyWorkflow(tk, dep, arffText, "J48", "Class")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workflow.NewEngine().Run(context.Background(), g); err != nil {
			b.Fatal(err)
		}
		if len(viewer.Seen()) != 1 {
			b.Fatal("viewer empty")
		}
	}
}

// Ablation: parallel vs sequential workflow scheduling (DESIGN.md) over a
// fan-out of independent local tasks.
func BenchmarkWorkflowScheduling(b *testing.B) {
	mkGraph := func() *workflow.Graph {
		g := workflow.NewGraph("fan")
		d := datagen.BreastCancer()
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("train%d", i)
			g.MustAdd(id, &workflow.FuncUnit{
				UnitName: id, Out: []string{"acc"},
				Fn: func(ctx context.Context, in workflow.Values) (workflow.Values, error) {
					j := classify.NewJ48()
					if err := j.Train(d); err != nil {
						return nil, err
					}
					return workflow.Values{"acc": "ok"}, nil
				}})
		}
		return g
	}
	for _, workers := range []int{0, 1} {
		name := "sequential"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := &workflow.Engine{Workers: workers}
				if _, err := e.Run(context.Background(), mkGraph()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9 (§5.3): genetic-search attribute selection ---

func BenchmarkGeneticSearch(b *testing.B) {
	d := datagen.BreastCancer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols, err := attrsel.GeneticSearch{Population: 20, Generations: 10, Seed: int64(i)}.
			Search(&attrsel.CFS{}, d)
		if err != nil {
			b.Fatal(err)
		}
		if len(cols) == 0 {
			b.Fatal("empty selection")
		}
	}
}

// --- E11: cross-validation (the Grid-WEKA distributed task) ---

func BenchmarkCrossValidation(b *testing.B) {
	d := datagen.BreastCancer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := classify.CrossValidateContext(context.Background(), func() classify.Classifier { return classify.NewJ48() }, d, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		if ev.Accuracy() < 0.5 {
			b.Fatal("degenerate CV")
		}
	}
}

// --- Parallel compute kernels ---
//
// These benches quantify the internal/parallel fan-out on the kernels
// that use it: cross-validation folds, ensemble member training, and the
// k-means and EM loops. Each runs alone, so it gets the whole helper
// budget (GOMAXPROCS − 1); compare budgets with -cpu:
//
//	go test -run '^$' -bench Parallel -benchmem -cpu 1,2 .
//
// Each kernel is bit-identical at any GOMAXPROCS (see the determinism
// tests), so the difference between the -1 and -2 lines is pure
// scheduling.

func BenchmarkCrossValidateParallel(b *testing.B) {
	d := datagen.RandomNominal(2000, 12, 4, 0.3, 29)
	factory := func() classify.Classifier { return classify.NewJ48() }
	for i := 0; i < b.N; i++ {
		ev, err := classify.CrossValidateContext(context.Background(), factory, d, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		if ev.Accuracy() <= 0 {
			b.Fatal("degenerate CV")
		}
	}
}

func BenchmarkBaggingParallel(b *testing.B) {
	d := datagen.RandomNominal(1500, 10, 4, 0.2, 31)
	for i := 0; i < b.N; i++ {
		bag := &classify.Bagging{Size: 16, Seed: 7}
		if err := bag.Train(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansParallel runs the fit at two shapes: 10k × 8 with k=8,
// and pipeline_chain's clusterBatch model (1024 × 8, k=3, registry
// defaults otherwise), where the fan-out is at its smallest.
func BenchmarkKMeansParallel(b *testing.B) {
	for _, tc := range []struct {
		name string
		d    *dataset.Dataset
		km   cluster.KMeans
	}{
		{"10000x8k8", datagen.GaussianClusters(8, 10000, 8, 6, 19), cluster.KMeans{K: 8, MaxIter: 40, Seed: 3}},
		{"1024x8k3", datagen.GaussianClusters(3, 1024, 8, 3.0, 1), cluster.KMeans{K: 3, MaxIter: 100, Seed: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				km := tc.km
				if err := km.Build(tc.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEMParallel(b *testing.B) {
	d := datagen.GaussianClusters(4, 4000, 8, 3.0, 23)
	for i := 0; i < b.N; i++ {
		em := &cluster.EM{K: 4, MaxIter: 30, Seed: 3, Tol: 1e-6}
		if err := em.Build(d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: streaming throughput ---

func BenchmarkStreamThroughput(b *testing.B) {
	d := datagen.RandomNominal(2000, 10, 4, 0.1, 3)
	ln, err := stream.Listen("127.0.0.1:0", d)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, closer, err := stream.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		nb := &classify.NaiveBayes{}
		if err := nb.Begin(r.Schema()); err != nil {
			b.Fatal(err)
		}
		n, err := stream.Feed(r, nb)
		closer.Close()
		if err != nil {
			b.Fatal(err)
		}
		if n != 2000 {
			b.Fatalf("streamed %d", n)
		}
	}
	b.ReportMetric(float64(2000*b.N)/b.Elapsed().Seconds(), "instances/s")
}

// --- E13: the signal toolbox ---

func BenchmarkFFT(b *testing.B) {
	xs := datagen.Sine(4096, []float64{64, 300}, []float64{1, 0.4}, 0.1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psd := signal.Periodogram(xs, signal.Hann)
		if signal.DominantFrequency(psd) != 64 {
			b.Fatal("wrong dominant bin")
		}
	}
}

// --- E7: Cobweb clustering ---

func BenchmarkCobweb(b *testing.B) {
	d := datagen.GaussianClusters(3, 200, 2, 8, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := &cluster.Cobweb{Acuity: 1.0, Cutoff: 0.0028}
		if err := cw.Build(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeans(b *testing.B) {
	d := datagen.GaussianClusters(4, 1000, 4, 8, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		km := &cluster.KMeans{K: 4, MaxIter: 100, Seed: int64(i)}
		if err := km.Build(d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Association rules (the third service family) ---

func BenchmarkApriori(b *testing.B) {
	trans := datagen.Baskets(2000, 24, 4, 0.9, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ap := assoc.NewApriori()
		ap.MinSupport = 0.08
		ap.MinConfidence = 0.8
		rules, err := ap.Mine(trans)
		if err != nil {
			b.Fatal(err)
		}
		if len(rules) == 0 {
			b.Fatal("no rules")
		}
	}
}

// Baseline comparison: Apriori vs FP-growth on the same workload. The
// classic result — FP-growth avoids candidate generation and wins on dense
// data — should reproduce in shape.
func BenchmarkMinerComparison(b *testing.B) {
	trans := datagen.Baskets(2000, 24, 4, 0.9, 17)
	b.Run("Apriori", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ap := assoc.NewApriori()
			ap.MinSupport = 0.08
			ap.MinConfidence = 0.8
			if _, err := ap.Mine(trans); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FPGrowth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fp := assoc.NewFPGrowth()
			fp.MinSupport = 0.08
			fp.MinConfidence = 0.8
			if _, err := fp.Mine(trans); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E8 (§4.2): the Mathematica-substitute plot3D rendering ---

func BenchmarkPlot3D(b *testing.B) {
	var pts []viz.Point3D
	for i := 0; i < 2000; i++ {
		x, y := float64(i%50), float64(i/50)
		pts = append(pts, viz.Point3D{X: x, Y: y, Z: x * y})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := viz.Plot3DPNG(640, 480, pts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Model serialisation (the unit cost underlying E5) ---

func BenchmarkModelSerialise(b *testing.B) {
	j := classify.NewJ48()
	if err := j.Train(datagen.BreastCancer()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := model.Marshal(j)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := model.Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiment batch engine (internal/experiment) ---

// noopExecutor isolates the batch runner's own cost: graph construction,
// engine dispatch, the retry loop, journal-free bookkeeping and result
// collection.
type noopExecutor struct{}

func (noopExecutor) Name() string { return "noop" }
func (noopExecutor) Execute(ctx context.Context, t *experiment.Tries, job experiment.Job, d *dataset.Dataset) (experiment.Metrics, error) {
	return t.Do(ctx, func(context.Context) (experiment.Metrics, error) { return experiment.Metrics{Accuracy: 1}, nil })
}

// BenchmarkExperimentScheduler measures per-job scheduling overhead: the
// batch engine must stay negligible next to training time.
func BenchmarkExperimentScheduler(b *testing.B) {
	jobs := make([]experiment.Job, 256)
	for i := range jobs {
		jobs[i] = experiment.Job{ID: fmt.Sprintf("job-%03d", i), Algorithm: "noop", Dataset: "none"}
	}
	e := &workflow.Engine{Workers: 8}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(ctx, e, jobs, nil, noopExecutor{}, experiment.Retry{}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs/op")
}

// BenchmarkExperimentSweep is a real (small) sweep: 4 classifiers × 3-fold
// CV on the weather dataset through the local executor.
func BenchmarkExperimentSweep(b *testing.B) {
	spec := &experiment.Spec{
		Name:  "bench-sweep",
		Folds: 3,
		Seed:  1,
		Datasets: []experiment.DatasetSpec{
			{Name: "weather", Builtin: "weather"},
		},
		Algorithms: []experiment.AlgorithmSpec{
			{Name: "J48"}, {Name: "OneR"}, {Name: "ZeroR"}, {Name: "IBk"},
		},
	}
	jobs, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	data, err := spec.Materialize()
	if err != nil {
		b.Fatal(err)
	}
	e := workflow.NewEngine() // experiment.Run bounds it at NumCPU
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiment.Run(ctx, e, jobs, data, experiment.Local{}, experiment.Retry{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Status != experiment.StatusOK {
				b.Fatalf("job %s: %s (%s)", res.Job.ID, res.Status, res.Err)
			}
		}
	}
}
