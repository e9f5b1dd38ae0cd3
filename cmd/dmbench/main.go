// Command dmbench regenerates every figure, table and quantified claim of
// the paper (DESIGN.md's experiment index E1-E15) and prints a
// paper-vs-measured report — the source of EXPERIMENTS.md.
//
// Usage:
//
//	dmbench [-invocations 200]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/arff"
	"repro/internal/attrsel"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/soap"
	"repro/internal/workflow"
)

func main() {
	invocations := flag.Int("invocations", 200, "repeated invocations for the §4.5 experiment")
	flag.Parse()
	w := os.Stdout

	report := func(id, artefact, paper, measured string) {
		fmt.Fprintf(w, "%-4s %-34s\n     paper:    %s\n     measured: %s\n\n", id, artefact, paper, measured)
	}

	d := datagen.BreastCancer()
	arffText := arff.Format(d)

	// E3 (Figure 3): dataset statistics.
	s := dataset.Summarize(d)
	report("E3", "Figure 3: breast-cancer statistics",
		"286 instances, 10 attributes, 9 missing (0.3%), distinct 6/3/11/7/2/3/2/5/2/2",
		fmt.Sprintf("%d instances, %d attributes, %d missing (%.1f%%), distinct %s",
			s.NumInstances, s.NumAttributes, s.MissingCells, s.MissingPct, distincts(s)))

	// E4 (Figure 4): the C4.5 tree.
	j := classify.NewJ48()
	if err := j.Train(d); err != nil {
		log.Fatal(err)
	}
	cv, err := classify.CrossValidateContext(context.Background(),
		func() classify.Classifier { return classify.NewJ48() }, d, 10, 1)
	if err != nil {
		log.Fatal(err)
	}
	report("E4", "Figure 4: J48 decision tree",
		"node-caps at the root of the pruned tree, deg-malig below node-caps=yes",
		fmt.Sprintf("root=%s, under yes=%s, %d leaves, size %d, 10-fold CV accuracy %.3f",
			j.Tree().AttrName, underYes(j), j.NumLeaves(), j.TreeSize(), cv.Accuracy()))

	// E5 (§4.5): serialise-per-call vs the in-memory harness.
	serNs, cacheNs := invocationExperiment(d, *invocations)
	report("E5", "§4.5: repeated-invocation penalty",
		"\"significant performance penalty\" from per-call serialise/rebuild; removed by the in-memory harness",
		fmt.Sprintf("serialising %.0f µs/invocation vs cached %.2f µs/invocation (%.0fx speedup) over %d invocations",
			serNs/1e3, cacheNs/1e3, serNs/cacheNs, *invocations))

	// Deploy services for the live experiments.
	dep, err := core.Deploy("127.0.0.1:0", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	// E1 (Figure 1) + E6: the case-study workflow over live SOAP.
	tk := core.NewToolkit()
	g, viewer, err := core.BuildCaseStudyWorkflow(tk, dep, arffText, "J48", "Class")
	if err != nil {
		log.Fatal(err)
	}
	began := time.Now()
	if _, err := workflow.NewEngine().Run(context.Background(), g); err != nil {
		log.Fatal(err)
	}
	wallE1 := time.Since(began)
	tree := viewer.Seen()[0]
	report("E1", "Figure 1: case-study workflow",
		"4-stage composition (getClassifiers -> selector -> getOptions -> classifyInstance -> treeViewer) produces the decision tree",
		fmt.Sprintf("8-task graph executed over SOAP in %v; viewer captured a %d-char tree rooted at node-caps=%v",
			wallE1.Round(time.Millisecond), len(tree), strings.Contains(tree, "node-caps = yes")))

	// E6: protocol verification.
	out, err := soap.CallContext(context.Background(), dep.EndpointURL("Classifier"), "getClassifiers", nil)
	if err != nil {
		log.Fatal(err)
	}
	nAlgo := len(strings.Split(strings.TrimSpace(out["classifiers"]), "\n"))
	report("E6", "§4.1: general Classifier service protocol",
		"getClassifiers / getOptions / classifyInstance(4 inputs); ~75 algorithms in the full toolkit",
		fmt.Sprintf("%d classifiers offered; full protocol exercised (see TestClassifierServiceProtocol)", nAlgo))

	// E9 (§5.3): genetic attribute search.
	cols, err := attrsel.GeneticSearch{Population: 24, Generations: 15, Seed: 7}.Search(&attrsel.CFS{}, d)
	if err != nil {
		log.Fatal(err)
	}
	var names []string
	for _, c := range cols {
		names = append(names, d.Attrs[c].Name)
	}
	report("E9", "§5.3: genetic-search attribute selection",
		"automates the root-attribute choice (node-caps)",
		fmt.Sprintf("GeneticSearch/CFS selects {%s} — includes node-caps: %v",
			strings.Join(names, ", "), contains(names, "node-caps")))

	// E15: the five-stage discovery pipeline with held-out verification.
	train, test, err := dataset.StratifiedSplit(d, 0.66, rand.New(rand.NewSource(9)))
	if err != nil {
		log.Fatal(err)
	}
	j2 := classify.NewJ48()
	if err := j2.Train(train); err != nil {
		log.Fatal(err)
	}
	ev, err := classify.NewEvaluation(test)
	if err != nil {
		log.Fatal(err)
	}
	if err := ev.TestModel(j2, test); err != nil {
		log.Fatal(err)
	}
	report("E15", "§3.1: five-stage discovery pipeline",
		"select data -> select algorithm -> select resource -> execute -> visualise/verify",
		fmt.Sprintf("66/34 stratified split; held-out accuracy %.3f, kappa %.3f", ev.Accuracy(), ev.Kappa()))

	fmt.Fprintln(w, "remaining experiments (E2, E7, E8, E10-E14) are asserted by the test suite;")
	fmt.Fprintln(w, "run `go test ./...` and `go test -bench=. -benchmem` for the full evidence.")
}

func distincts(s dataset.Summary) string {
	var out []string
	for _, a := range s.PerAttribute {
		out = append(out, fmt.Sprint(a.Distinct))
	}
	return strings.Join(out, "/")
}

func underYes(j *classify.J48) string {
	root := j.Tree()
	for i, lbl := range root.Labels {
		if lbl == "yes" && root.Children[i].Attr >= 0 {
			return root.Children[i].AttrName
		}
	}
	return "(leaf)"
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// invocationExperiment measures ns/invocation for both §4.5 backends.
func invocationExperiment(d *dataset.Dataset, n int) (serialisingNs, cachedNs float64) {
	build := func() (classify.Classifier, error) {
		j := classify.NewJ48()
		if err := j.Train(d); err != nil {
			return nil, err
		}
		return j, nil
	}
	probe := d.Instances[0]
	run := func(b harness.Backend) float64 {
		// Warm-up invocation performs the one-time build.
		if err := harness.Invoke(b, "j48", build, func(c classify.Classifier) error {
			_, err := classify.Predict(c, probe)
			return err
		}); err != nil {
			log.Fatal(err)
		}
		began := time.Now()
		for i := 0; i < n; i++ {
			if err := harness.Invoke(b, "j48", build, func(c classify.Classifier) error {
				_, err := classify.Predict(c, probe)
				return err
			}); err != nil {
				log.Fatal(err)
			}
		}
		return float64(time.Since(began).Nanoseconds()) / float64(n)
	}
	dir, err := os.MkdirTemp("", "dmbench")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := model.NewStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	serialisingNs = run(&harness.SerialisingBackend{Store: store})
	cachedNs = run(harness.NewCachedBackend(8))
	return serialisingNs, cachedNs
}
