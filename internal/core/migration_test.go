package core

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arff"
	"repro/internal/datagen"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/workflow"
	"repro/internal/wsdl"
)

// TestJobMigrationAcrossDeployments reproduces §3's fault-tolerance
// requirement at the deployment level: "the framework must include the
// ability to complete the task if a fault occurs by moving the job to
// another resource". Two deployments host the same J48 service and a
// registry lists both, the primary first; the primary is shut down
// without withdrawing, and the task's endpoint pool moves the job to the
// backup on its one retry.
func TestJobMigrationAcrossDeployments(t *testing.T) {
	primary, err := Deploy("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	backup := deploy(t)
	reg := registry.New()
	regSrv := httptest.NewServer(reg.Handler())
	t.Cleanup(regSrv.Close)
	for name, d := range map[string]*Deployment{"J48": primary, "J48-backup": backup} {
		if err := reg.Publish(registry.Entry{Name: name, Category: "classification", Endpoint: d.EndpointURL("J48")}); err != nil {
			t.Fatal(err)
		}
	}

	g := workflow.NewGraph("migrating")
	task := g.MustAdd("classify", &workflow.SOAPUnit{
		Endpoint:    primary.EndpointURL("J48"),
		Service:     "J48",
		Operation:   "classify",
		In:          []string{"dataset", "options", "attribute"},
		Out:         []string{"tree"},
		RegistryURL: regSrv.URL,
	})
	task.Params["dataset"] = arff.Format(datagen.BreastCancer())
	task.Params["attribute"] = "Class"

	// Kill the primary resource before execution.
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	retries := obs.Default.Counter("resilience_retries_total")
	before := retries.Value()
	res, err := workflow.NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatalf("migration failed: %v", err)
	}
	if got := retries.Value() - before; got != 1 {
		t.Fatalf("resilience_retries_total rose by %d, want 1 migration", got)
	}
	tree, _ := res.Value("classify", "tree")
	if !strings.Contains(tree, "node-caps") {
		t.Fatalf("migrated job returned:\n%s", tree)
	}
}

// TestWSDLDocumentsRoundTripAcrossDeployments: the WSDL served by a live
// deployment parses back into a description whose endpoint matches the
// service — the contract behind "a URL specifying the location of the WSDL
// document can be seen" (§4.5).
func TestWSDLDocumentsRoundTripAcrossDeployments(t *testing.T) {
	d := deploy(t)
	for _, name := range d.ServiceNames() {
		desc, err := workflow.FetchWSDL(d.WSDLURL(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		units := workflow.UnitsFromDescription(desc)
		if len(units) == 0 {
			t.Fatalf("%s: WSDL declares no operations", name)
		}
		for _, u := range units {
			if u.Endpoint != d.EndpointURL(name) {
				t.Fatalf("%s: endpoint %q != %q", name, u.Endpoint, d.EndpointURL(name))
			}
		}
	}
}

// TestOptionSelectorRejectsUnknownOption: the OptionSelector tool validates
// chosen options against the getOptions descriptors, as the workspace's
// option panel does.
func TestOptionSelectorRejectsUnknownOption(t *testing.T) {
	tk := NewToolkit()
	u, err := tk.NewUnit("OptionSelector")
	if err != nil {
		t.Fatal(err)
	}
	descriptors := `[{"name":"confidenceFactor","default":"0.25"}]`
	out, err := u.Run(context.Background(), workflow.Values{
		"options":              descriptors,
		"set.confidenceFactor": "0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out["selected"], `"confidenceFactor":"0.1"`) {
		t.Fatalf("selected = %q", out["selected"])
	}
	if _, err := u.Run(context.Background(), workflow.Values{
		"options":   descriptors,
		"set.bogus": "1",
	}); err == nil {
		t.Fatal("unknown option accepted")
	}
}

// TestImportDescriptionDocs: imported tools carry the WSDL documentation.
func TestImportDescriptionDocs(t *testing.T) {
	tk := NewToolkit()
	desc := &wsdl.Description{
		Service:  "Doc",
		Endpoint: "http://example/doc",
		Ops: []wsdl.Operation{{
			Name: "op", Doc: "does things",
			Inputs:  []wsdl.Part{{Name: "in"}},
			Outputs: []wsdl.Part{{Name: "out"}},
		}},
	}
	names, err := tk.ImportDescription(desc)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "Doc.op" {
		t.Fatalf("names = %v", names)
	}
	if got := tk.ToolsIn("RemoteServices/Doc"); len(got) != 1 {
		t.Fatalf("folder contents = %v", got)
	}
	// Importing the same description twice errors on the duplicate.
	if _, err := tk.ImportDescription(desc); err == nil {
		t.Fatal("duplicate import accepted")
	}
}

// TestImportFromRegistry: the §4.6 discovery flow — inquire the registry by
// category and import every hit's WSDL into the toolbox.
func TestImportFromRegistry(t *testing.T) {
	d := deploy(t)
	tk := NewToolkit()
	names, err := tk.ImportFromRegistry(d.RegistryURL(), "clustering")
	if err != nil {
		t.Fatal(err)
	}
	// Clusterer (5 ops) + Cobweb (2 ops).
	if len(names) != 7 {
		t.Fatalf("imported %v", names)
	}
	if _, err := tk.NewUnit("Cobweb.getCobwebGraph"); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.ImportFromRegistry(d.RegistryURL(), "no-such-category"); err == nil {
		t.Fatal("empty category accepted")
	}
	if _, err := tk.ImportFromRegistry("http://127.0.0.1:1", ""); err == nil {
		t.Fatal("dead registry accepted")
	}
}

// TestSerialisingDeploymentServesAllCommonClassifiers: the naive §4.5
// deployment (dmserver -backend serialising) must handle every
// serialisable single-model algorithm, not just J48.
func TestSerialisingDeploymentServesAllCommonClassifiers(t *testing.T) {
	dir := t.TempDir()
	store, err := model.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy("127.0.0.1:0", &harness.SerialisingBackend{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	bc := arff.Format(datagen.BreastCancer())
	for _, name := range []string{"J48", "NaiveBayes", "ZeroR", "OneR", "IBk", "Prism"} {
		out, err := soap.CallContext(context.Background(), d.EndpointURL("Classifier"), "classifyInstance", map[string]string{
			"dataset": bc, "classifier": name, "attribute": "Class",
		})
		if err != nil {
			t.Fatalf("%s via serialising backend: %v", name, err)
		}
		if out["accuracy"] == "" {
			t.Fatalf("%s: no accuracy", name)
		}
		// Second call goes through the on-disk state.
		if _, err := soap.CallContext(context.Background(), d.EndpointURL("Classifier"), "classifyInstance", map[string]string{
			"dataset": bc, "classifier": name, "attribute": "Class",
		}); err != nil {
			t.Fatalf("%s second invocation: %v", name, err)
		}
	}
	if ids, _ := filepath.Glob(filepath.Join(dir, "*.model")); len(ids) != 6 {
		t.Fatalf("store holds %d models, want 6", len(ids))
	}
}
