package services

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arff"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/regress"
	"repro/internal/soap"
	"repro/internal/wire"
)

// TestClustererServiceClusterBatch drives the dmb1 clustering fast path
// end to end and holds the DMC1 reply to bit-identity with local
// columnar assignment.
func TestClustererServiceClusterBatch(t *testing.T) {
	base := hostServices(t, NewClustererService())
	url := base + "/services/Clusterer"

	build := datagen.GaussianClusters(3, 60, 4, 3.0, 42)
	batch := datagen.GaussianClusters(3, 25, 4, 3.0, 7)
	payload, err := wire.MarshalBase64(batch.Clone())
	if err != nil {
		t.Fatal(err)
	}

	rowsBefore := obs.Default.Counter("batch_rows_total", "op=clusterBatch").Value()
	out, err := soap.CallContext(context.Background(), url, "clusterBatch", map[string]string{
		PartDataset:   arff.Format(build.Clone()),
		PartClusterer: "SimpleKMeans",
		PartOptions:   "k=3",
		PartPayload:   payload,
		PartEncoding:  wire.Encoding,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[PartEncoding] != wire.Encoding {
		t.Fatalf("encoding echo = %q", out[PartEncoding])
	}
	n, err := strconv.Atoi(out[PartRows])
	if err != nil || n != batch.NumInstances() {
		t.Fatalf("rows = %q, want %d", out[PartRows], batch.NumInstances())
	}
	if k, _ := strconv.Atoi(out[PartClusters]); k != 3 {
		t.Fatalf("clusters = %q, want 3", out[PartClusters])
	}
	res, err := wire.UnmarshalClusterResultBase64(out[PartPayload])
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 3 || len(res.Assignments) != n {
		t.Fatalf("result %d clusters / %d assignments", res.Clusters, len(res.Assignments))
	}
	if res.ScoreKind != wire.ScoreDistance || len(res.Scores) != 3 {
		t.Fatalf("score kind %q with %d columns", res.ScoreKind, len(res.Scores))
	}

	// Bit-identity with the local batch kernel.
	km := &cluster.KMeans{K: 3, MaxIter: 100, Seed: 1}
	if err := km.Build(build); err != nil {
		t.Fatal(err)
	}
	wantAssign, wantScores, _, err := cluster.AssignAll(km, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantAssign {
		if res.Assignments[i] != wantAssign[i] {
			t.Fatalf("row %d assigned %d, want %d", i, res.Assignments[i], wantAssign[i])
		}
		for cl := range wantScores {
			if math.Float64bits(res.Scores[cl][i]) != math.Float64bits(wantScores[cl][i]) {
				t.Fatalf("row %d cluster %d score %v, want %v", i, cl, res.Scores[cl][i], wantScores[cl][i])
			}
		}
	}

	rowsAfter := obs.Default.Counter("batch_rows_total", "op=clusterBatch").Value()
	if rowsAfter-rowsBefore != int64(n) {
		t.Fatalf("batch_rows_total advanced by %d, want %d", rowsAfter-rowsBefore, n)
	}
}

// TestClustererServiceAssignAgreesWithBatch pins the XML twin: the
// textual assign op must label instances exactly as clusterBatch does.
func TestClustererServiceAssignAgreesWithBatch(t *testing.T) {
	base := hostServices(t, NewClustererService())
	url := base + "/services/Clusterer"

	build := datagen.GaussianClusters(2, 40, 3, 3.0, 5)
	batch := datagen.GaussianClusters(2, 10, 3, 3.0, 17)

	out, err := soap.CallContext(context.Background(), url, "assign", map[string]string{
		PartDataset:   arff.Format(build.Clone()),
		PartInstances: arff.Format(batch.Clone()),
		PartClusterer: "FarthestFirst",
		PartOptions:   "k=2",
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := strings.Split(strings.TrimSpace(out[PartLabels]), "\n")
	if len(labels) != batch.NumInstances() {
		t.Fatalf("%d labels for %d instances", len(labels), batch.NumInstances())
	}

	payload, err := wire.MarshalBase64(batch.Clone())
	if err != nil {
		t.Fatal(err)
	}
	bout, err := soap.CallContext(context.Background(), url, "clusterBatch", map[string]string{
		PartDataset:   arff.Format(build.Clone()),
		PartClusterer: "FarthestFirst",
		PartOptions:   "k=2",
		PartPayload:   payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wire.UnmarshalClusterResultBase64(bout[PartPayload])
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l != strconv.Itoa(res.Assignments[i]) {
			t.Fatalf("row %d: assign says %s, clusterBatch says %d", i, l, res.Assignments[i])
		}
	}
}

// TestRegressorServiceRegressBatch drives the DMV1 path end to end.
func TestRegressorServiceRegressBatch(t *testing.T) {
	base := hostServices(t, NewRegressorService())
	url := base + "/services/Regressor"

	// getRegressors lists the registry.
	out, err := soap.CallContext(context.Background(), url, "getRegressors", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Split(strings.TrimSpace(out[partRegressors]), "\n"); len(got) != len(regress.Registry.Names()) {
		t.Fatalf("getRegressors = %v, want %v", got, regress.Registry.Names())
	}

	train := datagen.WeatherNumeric()
	batch := train.Clone()
	payload, err := wire.MarshalBase64(batch)
	if err != nil {
		t.Fatal(err)
	}

	rowsBefore := obs.Default.Counter("batch_rows_total", "op=regressBatch").Value()
	out, err = soap.CallContext(context.Background(), url, "regressBatch", map[string]string{
		PartDataset:   arff.Format(train.Clone()),
		PartRegressor: "LinearRegression",
		PartAttribute: "temperature",
		PartPayload:   payload,
		PartEncoding:  wire.Encoding,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wire.UnmarshalRegressResultBase64(out[PartPayload])
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != "temperature" {
		t.Fatalf("target %q", res.Target)
	}
	if len(res.Values) != batch.NumInstances() {
		t.Fatalf("%d values for %d rows", len(res.Values), batch.NumInstances())
	}

	// Bit-identity with local training + batch prediction.
	d := train.Clone()
	if err := d.SetClassByName("temperature"); err != nil {
		t.Fatal(err)
	}
	lr := &regress.LinearRegression{}
	if err := lr.Train(d); err != nil {
		t.Fatal(err)
	}
	want, err := regress.PredictBatch(lr, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(res.Values[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: %v, want %v", i, res.Values[i], want[i])
		}
	}

	rowsAfter := obs.Default.Counter("batch_rows_total", "op=regressBatch").Value()
	if rowsAfter-rowsBefore != int64(batch.NumInstances()) {
		t.Fatalf("batch_rows_total advanced by %d, want %d", rowsAfter-rowsBefore, batch.NumInstances())
	}

	// The textual regress op reports a finite training fit.
	out, err = soap.CallContext(context.Background(), url, "regress", map[string]string{
		PartDataset:   arff.Format(train.Clone()),
		PartRegressor: "KNNRegressor",
		PartOptions:   "k=3",
		PartAttribute: "temperature",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out[partSummary], "KNNRegressor") || !strings.Contains(out[PartEvaluation], "rmse") {
		t.Fatalf("regress reply: summary %q evaluation %q", out[partSummary], out[PartEvaluation])
	}

	// Nominal target rejected as the caller's fault.
	_, err = soap.CallContext(context.Background(), url, "regress", map[string]string{
		PartDataset:   arff.Format(datagen.Weather()),
		PartRegressor: "LinearRegression",
		PartAttribute: "play",
	})
	var f *soap.Fault
	if err == nil || !soapFaultAs(err, &f) || f.Code != "soap:Client" {
		t.Fatalf("nominal target: error %v, want soap:Client fault", err)
	}
}

// TestFilterServiceFilterBatch: a filterBatch hop must transform a block
// bit-identically to the local columnar path, and chain into another
// filterBatch call without any ARFF in between.
func TestFilterServiceFilterBatch(t *testing.T) {
	base := hostServices(t, NewFilterService())
	url := base + "/services/Filter"

	d := datagen.WeatherNumeric()
	payload, err := wire.MarshalBase64(d.Clone())
	if err != nil {
		t.Fatal(err)
	}

	rowsBefore := obs.Default.Counter("batch_rows_total", "op=filterBatch").Value()
	out, err := soap.CallContext(context.Background(), url, "filterBatch", map[string]string{
		PartPayload:  payload,
		PartFilter:   "Normalize",
		PartEncoding: wire.Encoding,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.UnmarshalBase64(out[PartPayload])
	if err != nil {
		t.Fatal(err)
	}
	want, err := filter.ApplyColumns(filter.Normalize{}, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumInstances() != want.NumInstances() || got.NumAttributes() != want.NumAttributes() {
		t.Fatalf("shape %dx%d, want %dx%d", got.NumInstances(), got.NumAttributes(),
			want.NumInstances(), want.NumAttributes())
	}
	for i := range want.Instances {
		for c := range want.Instances[i].Values {
			if math.Float64bits(got.Instances[i].Values[c]) != math.Float64bits(want.Instances[i].Values[c]) {
				t.Fatalf("row %d col %d: %v, want %v", i, c,
					got.Instances[i].Values[c], want.Instances[i].Values[c])
			}
		}
	}

	// Chain: feed the reply payload straight into a schema-changing hop.
	out2, err := soap.CallContext(context.Background(), url, "filterBatch", map[string]string{
		PartPayload: out[PartPayload],
		PartFilter:  "Discretize",
		PartBins:    "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	binned, err := wire.UnmarshalBase64(out2[PartPayload])
	if err != nil {
		t.Fatal(err)
	}
	for c, a := range binned.Attrs {
		if c != binned.ClassIndex && !a.IsNominal() {
			t.Fatalf("col %d still numeric after chained Discretize", c)
		}
	}

	rowsAfter := obs.Default.Counter("batch_rows_total", "op=filterBatch").Value()
	if rowsAfter-rowsBefore != int64(2*d.NumInstances()) {
		t.Fatalf("batch_rows_total advanced by %d, want %d", rowsAfter-rowsBefore, 2*d.NumInstances())
	}

	// Unknown filter names are the caller's fault on the batch path too.
	_, err = soap.CallContext(context.Background(), url, "filterBatch", map[string]string{
		PartPayload: payload,
		PartFilter:  "Rotate",
	})
	var f *soap.Fault
	if err == nil || !soapFaultAs(err, &f) || f.Code != "soap:Client" {
		t.Fatalf("unknown filter: error %v, want soap:Client fault", err)
	}
}

// TestClusterBatchNarrowBlock: for every registered clusterer, a payload
// narrower than the dataset the model was built on is answered with a
// soap:Client fault from the width check, not a recovered panic and not
// a retryable soap:Server fault.
func TestClusterBatchNarrowBlock(t *testing.T) {
	base := hostServices(t, NewClustererService())
	url := base + "/services/Clusterer"
	train := datagen.GaussianClusters(3, 30, 4, 3.0, 42)
	narrow, err := train.Project([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.MarshalBase64(narrow)
	if err != nil {
		t.Fatal(err)
	}
	panics := obs.Default.Counter("soap_server_panics_total", "service=Clusterer", "op=clusterBatch")
	for _, name := range cluster.Names() {
		before := panics.Value()
		_, err := soap.CallContext(context.Background(), url, "clusterBatch", map[string]string{
			PartDataset:   arff.Format(train.Clone()),
			PartClusterer: name,
			PartPayload:   payload,
			PartEncoding:  wire.Encoding,
		})
		var f *soap.Fault
		if !soapFaultAs(err, &f) {
			t.Fatalf("%s: error %v, want a SOAP fault", name, err)
		}
		if f.Code != "soap:Client" || !strings.Contains(f.String, dataset.ErrWidth.Error()) {
			t.Errorf("%s: fault %s %q, want soap:Client carrying %q", name, f.Code, f.String, dataset.ErrWidth)
		}
		if panics.Value() != before {
			t.Errorf("%s: the fault came from a recovered panic", name)
		}
	}
}
