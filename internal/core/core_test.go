package core

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arff"
	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/soap"
	"repro/internal/workflow"
)

// deployment is shared across tests in this package; services are
// stateless apart from the harness cache.
func deploy(t *testing.T) *Deployment {
	t.Helper()
	d, err := Deploy("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// TestToolboxArchitecture is experiment E2: the Figure-2 component
// inventory — data-manipulation, processing and visualisation tool folders
// plus the Common tools, with the Web Service import path alongside.
func TestToolboxArchitecture(t *testing.T) {
	tk := NewToolkit()
	folders := tk.Folders()
	for _, want := range []string{"Common", "DataManipulation", "Processing", "Visualization", "SignalProcessing"} {
		found := false
		for _, f := range folders {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("folder %q missing (have %v)", want, folders)
		}
	}
	// §4.3's three tool families.
	if tools := tk.ToolsIn("DataManipulation"); len(tools) < 3 {
		t.Fatalf("data manipulation tools: %v", tools)
	}
	for _, name := range []string{"CSVtoARFF", "ARFFtoCSV", "LocalDataset", "DatasetInfo",
		"ClassifierSelector", "OptionSelector", "AttributeSelector",
		"TreeViewer", "ImageViewer", "FFT", "StringInput", "StringViewer"} {
		if _, err := tk.NewUnit(name); err != nil {
			t.Fatalf("tool %q missing: %v", name, err)
		}
	}
	tree := tk.TreeString()
	if !strings.Contains(tree, "DataManipulation/") || !strings.Contains(tree, "  TreeViewer") {
		t.Fatalf("tool tree:\n%s", tree)
	}
	if _, err := tk.NewUnit("Nonexistent"); err == nil {
		t.Fatal("phantom tool constructed")
	}
	if err := tk.register(tool{}); err == nil {
		t.Fatal("anonymous tool registered")
	}
	if err := tk.register(tool{Name: "TreeViewer", Make: func() workflow.Unit { return nil }}); err == nil {
		t.Fatal("duplicate tool registered")
	}
}

// TestRegistryRoundtrip is experiment E10: every deployed service is
// published in the UDDI-style registry and its WSDL imports into the
// toolbox as one tool per operation.
func TestRegistryRoundtrip(t *testing.T) {
	d := deploy(t)
	entries := d.Registry.Inquire("", "")
	if len(entries) != 14 {
		t.Fatalf("registry holds %d services, want 14", len(entries))
	}
	classifiers := d.Registry.Inquire("", "classifier")
	if len(classifiers) != 2 { // Classifier + J48
		t.Fatalf("classifier category = %v", classifiers)
	}
	// Import a WSDL URL found via the registry.
	entry, ok := d.Registry.Get("Cobweb")
	if !ok {
		t.Fatal("Cobweb not in registry")
	}
	tk := NewToolkit()
	names, err := tk.ImportWSDL(entry.WSDLURL)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("imported tools = %v", names)
	}
	if names[0] != "Cobweb.cluster" || names[1] != "Cobweb.getCobwebGraph" {
		t.Fatalf("tool names = %v", names)
	}
	// The tool keeps the operation's <documentation> from the WSDL.
	if doc := tk.tools["Cobweb.cluster"].Doc; doc != "Apply the Cobweb algorithm to an ARFF dataset; returns a textual result." {
		t.Fatalf("imported tool doc = %q", doc)
	}
	// The imported tool invokes the live service.
	u, err := tk.NewUnit("Cobweb.cluster")
	if err != nil {
		t.Fatal(err)
	}
	out, err := u.Run(context.Background(), workflow.Values{
		"dataset": arff.Format(datagen.Weather()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out["summary"], "leaf concepts") {
		t.Fatalf("summary:\n%s", out["summary"])
	}
}

// TestCaseStudyWorkflow is experiment E1: the full §5 composition of
// Figure 1 executed end-to-end over live SOAP services — getClassifiers →
// selector → getOptions → option selector → classifyInstance (4 inputs) →
// tree viewer.
func TestCaseStudyWorkflow(t *testing.T) {
	d := deploy(t)
	tk := NewToolkit()
	arffText := arff.Format(datagen.BreastCancer())
	g, viewer, err := BuildCaseStudyWorkflow(tk, d, arffText, "J48", "Class")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := workflow.NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	seen := viewer.Seen()
	if len(seen) != 1 {
		t.Fatalf("viewer captured %d values", len(seen))
	}
	// The captured model is the Figure-4 tree.
	if !strings.Contains(seen[0], "node-caps = yes") {
		t.Fatalf("tree viewer content:\n%s", seen[0])
	}
	if acc, ok := res.Value("classify", "accuracy"); !ok || acc == "" {
		t.Fatal("accuracy output missing")
	}
	// The same workflow graph survives XML export/import (Triana's XML
	// export, §2) and re-executes identically.
	xmlDoc, err := workflow.MarshalXML(caseStudySerialisable(t, g))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := workflow.UnmarshalXMLBytes(xmlDoc)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Tasks()) != len(g.Tasks()) {
		t.Fatalf("XML round trip lost tasks: %v vs %v", g2.Tasks(), g.Tasks())
	}
}

// caseStudySerialisable swaps the local FuncUnit tools for serialisable
// stand-ins so the graph structure can round-trip through XML.
func caseStudySerialisable(t *testing.T, g *workflow.Graph) *workflow.Graph {
	t.Helper()
	out := workflow.NewGraph(g.Name)
	for _, id := range g.Tasks() {
		task := g.Task(id)
		var u workflow.Unit
		if s, ok := task.Unit.(workflow.Specced); ok {
			u = task.Unit
			_ = s
		} else {
			u = &workflow.ConstUnit{UnitName: task.Unit.Name(), Values: workflow.Values{}}
		}
		nt, err := out.Add(id, u)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range task.Params {
			nt.Params[k] = v
		}
	}
	return out
}

// TestDiscoveryPipeline is experiment E15: the five-stage §3.1 pipeline —
// select data, select algorithm, select resource (via registry), execute,
// verify on a held-out test set.
func TestDiscoveryPipeline(t *testing.T) {
	d := deploy(t)
	full := datagen.BreastCancer()
	rng := rand.New(rand.NewSource(5))
	train, test, err := dataset.StratifiedSplit(full, 0.66, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 1-2: data selected; algorithm picked from the live service list.
	url := d.EndpointURL("Classifier")
	out, err := soap.CallContext(context.Background(), url, "getClassifiers", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out["classifiers"], "J48") {
		t.Fatal("J48 unavailable")
	}
	// Stage 3: resource selection via the registry.
	entry, ok := d.Registry.Get("Classifier")
	if !ok {
		t.Fatal("Classifier not registered")
	}
	if entry.Endpoint != url {
		t.Fatalf("registry endpoint %q != %q", entry.Endpoint, url)
	}
	// Stage 4: execute remotely on the training share.
	out, err = soap.CallContext(context.Background(), entry.Endpoint, "classifyInstance", map[string]string{
		"dataset":    arff.Format(train.Clone()),
		"classifier": "J48",
		"attribute":  "Class",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 5: verify with a local model trained identically on the train
	// share and evaluated on the held-out test share.
	j := classify.NewJ48()
	if err := j.Train(train); err != nil {
		t.Fatal(err)
	}
	ev, err := classify.NewEvaluation(test)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.TestModel(j, test); err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy() < 0.65 {
		t.Fatalf("held-out accuracy = %v", ev.Accuracy())
	}
	if !strings.Contains(out["model"], "node-caps") {
		t.Fatalf("remote model:\n%s", out["model"])
	}
}

// TestDistributedTasks is experiment E11: the Grid-WEKA task set of §2 —
// build a classifier on a "remote" resource, ship the previously built
// model across a serialisation boundary, label unlabelled data with it,
// test it, and cross-validate.
func TestDistributedTasks(t *testing.T) {
	full := datagen.BreastCancer()
	rng := rand.New(rand.NewSource(11))
	train, test, err := dataset.StratifiedSplit(full, 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Task: building a classifier on a remote machine (simulated by the
	// model crossing a byte boundary).
	j := classify.NewJ48()
	if err := j.Train(train); err != nil {
		t.Fatal(err)
	}
	wire, err := model.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := model.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	// Task: labelling test data using a previously built classifier.
	unlabelled := test.Clone()
	for _, in := range unlabelled.Instances {
		in.Values[unlabelled.ClassIndex] = dataset.Missing
	}
	labels, err := classify.Label(shipped, unlabelled)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != test.NumInstances() {
		t.Fatalf("labelled %d of %d", len(labels), test.NumInstances())
	}
	// Task: testing a previously built classifier on a dataset.
	ev, err := classify.NewEvaluation(test)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.TestModel(shipped, test); err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy() < 0.65 {
		t.Fatalf("shipped-model accuracy = %v", ev.Accuracy())
	}
	// Task: cross-validation.
	cv, err := classify.CrossValidateContext(context.Background(), func() classify.Classifier { return classify.NewJ48() }, full, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Accuracy() < 0.7 {
		t.Fatalf("CV accuracy = %v", cv.Accuracy())
	}
}

// TestFFTWorkflowUnit is experiment E13: Triana's signal-processing
// toolbox reachable from the composition workspace (§2).
func TestFFTWorkflowUnit(t *testing.T) {
	tk := NewToolkit()
	u, err := tk.NewUnit("FFT")
	if err != nil {
		t.Fatal(err)
	}
	xs := datagen.Sine(256, []float64{8}, []float64{1}, 0.02, 9)
	toks := make([]string, len(xs))
	for i, v := range xs {
		toks[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	g := workflow.NewGraph("spectral")
	task := g.MustAdd("fft", u)
	task.Params["signal"] = strings.Join(toks, ",")
	res, err := workflow.NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if dom, _ := res.Value("fft", "dominant"); dom != "8" {
		t.Fatalf("dominant bin = %q, want 8", dom)
	}
	if spec, _ := res.Value("fft", "spectrum"); len(strings.Split(spec, ",")) != 129 {
		t.Fatalf("spectrum bins = %d", len(strings.Split(spec, ",")))
	}
}
