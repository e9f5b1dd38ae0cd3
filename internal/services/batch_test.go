package services

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arff"
	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/wire"
)

func TestClassifierServiceClassifyBatch(t *testing.T) {
	backend := harness.NewCachedBackend(8)
	base := hostServices(t, NewClassifierService(backend))
	url := base + "/services/Classifier"

	train := datagen.BreastCancer()
	batch := train.Clone()
	payload, err := wire.MarshalBase64(batch)
	if err != nil {
		t.Fatal(err)
	}

	rowsBefore := obs.Default.Counter("batch_rows_total", "op=classifyBatch").Value()
	out, err := soap.CallContext(context.Background(), url, "classifyBatch", map[string]string{
		PartDataset:    arff.Format(train.Clone()),
		PartClassifier: "J48",
		PartAttribute:  "Class",
		PartPayload:    payload,
		PartEncoding:   wire.Encoding,
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
	res, err := wire.UnmarshalResultBase64(out[PartPayload])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != n {
		t.Fatalf("%d labels for %d rows", len(res.Labels), n)
	}

	// The DMR1 labels must be bit-identical to local scoring.
	c, _ := classify.New("J48")
	d := train.Clone()
	if err := d.SetClassByName("Class"); err != nil {
		t.Fatal(err)
	}
	if err := c.Train(d); err != nil {
		t.Fatal(err)
	}
	wantLabels, wantDists, err := classify.PredictBatch(c, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLabels {
		if res.Labels[i] != wantLabels[i] {
			t.Fatalf("row %d label %d, want %d", i, res.Labels[i], wantLabels[i])
		}
		for cl := range wantDists[i] {
			if math.Float64bits(res.Distributions[cl][i]) != math.Float64bits(wantDists[i][cl]) {
				t.Fatalf("row %d class %d p=%v, want %v", i, cl, res.Distributions[cl][i], wantDists[i][cl])
			}
		}
	}

	// Metrics recorded.
	rowsAfter := obs.Default.Counter("batch_rows_total", "op=classifyBatch").Value()
	if rowsAfter-rowsBefore != int64(batch.NumInstances()) {
		t.Fatalf("batch_rows_total advanced by %d, want %d", rowsAfter-rowsBefore, batch.NumInstances())
	}
	if obs.Default.Snapshot().Histograms[obs.Key("batch_decode_ms", "op=classifyBatch")].Count == 0 {
		t.Fatal("batch_decode_ms not observed")
	}
}

func TestSessionServiceClassifyBatch(t *testing.T) {
	backend := harness.NewCachedBackend(8)
	base := hostServices(t, NewSessionService(backend))
	url := base + "/services/Session"

	train := datagen.BreastCancer()
	out, err := soap.CallContext(context.Background(), url, "createSession", map[string]string{
		PartDataset:    arff.Format(train.Clone()),
		PartClassifier: "NaiveBayes",
		PartAttribute:  "Class",
	})
	if err != nil {
		t.Fatal(err)
	}
	session := out[PartSession]

	payload, err := wire.MarshalBase64(train.Clone())
	if err != nil {
		t.Fatal(err)
	}
	out, err = soap.CallContext(context.Background(), url, "classifyBatch", map[string]string{
		PartSession:  session,
		PartPayload:  payload,
		PartEncoding: wire.Encoding,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wire.UnmarshalResultBase64(out[PartPayload])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != train.NumInstances() {
		t.Fatalf("%d labels, want %d", len(res.Labels), train.NumInstances())
	}
	// Labels must agree with the session's per-instance classify op.
	ca := train.ClassAttribute()
	for i, l := range res.Labels {
		if res.Classes[l] == "" || l >= ca.NumValues() {
			t.Fatalf("row %d: label %d out of class range", i, l)
		}
	}
}

func TestClassifyBatchFaults(t *testing.T) {
	backend := harness.NewCachedBackend(8)
	base := hostServices(t, NewClassifierService(backend), NewSessionService(backend))
	url := base + "/services/Classifier"

	train := datagen.Weather()
	good, err := wire.MarshalBase64(train.Clone())
	if err != nil {
		t.Fatal(err)
	}
	baseParts := func() map[string]string {
		return map[string]string{
			PartDataset:    arff.Format(train.Clone()),
			PartClassifier: "NaiveBayes",
			PartAttribute:  "play",
			PartPayload:    good,
		}
	}

	mustClientFault := func(name string, parts map[string]string) {
		t.Helper()
		_, err := soap.CallContext(context.Background(), url, "classifyBatch", parts)
		if err == nil {
			t.Fatalf("%s: no error", name)
		}
		var f *soap.Fault
		if !soapFaultAs(err, &f) || f.Code != "soap:Client" {
			t.Fatalf("%s: error %v, want soap:Client fault", name, err)
		}
	}

	p := baseParts()
	delete(p, PartPayload)
	mustClientFault("missing payload", p)

	p = baseParts()
	p[PartEncoding] = "protobuf"
	mustClientFault("unsupported encoding", p)

	p = baseParts()
	p[PartPayload] = "!!!not base64!!!"
	mustClientFault("invalid base64", p)

	p = baseParts()
	p[PartPayload] = good[:len(good)/2]
	mustClientFault("truncated payload", p)

	// Corrupt interior bytes (flip a chunk past the header).
	raw, err := wire.MarshalBase64(train.Clone())
	if err != nil {
		t.Fatal(err)
	}
	b := []byte(raw)
	if len(b) > 40 {
		b[30], b[31] = 'A', 'A'
		b[32], b[33] = 'A', 'A'
	}
	p = baseParts()
	p[PartPayload] = string(b)
	_, err = soap.CallContext(context.Background(), url, "classifyBatch", p)
	if err == nil {
		t.Skip("byte flip produced a still-valid payload") // extremely unlikely
	}
	var f *soap.Fault
	if !soapFaultAs(err, &f) || f.Code != "soap:Client" {
		t.Fatalf("corrupt payload: error %v, want soap:Client fault", err)
	}
}

// soapFaultAs unwraps a client-side error into the transported fault.
func soapFaultAs(err error, f **soap.Fault) bool {
	for e := err; e != nil; {
		if fault, ok := e.(*soap.Fault); ok {
			*f = fault
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			break
		}
		e = u.Unwrap()
	}
	// The SOAP client may surface faults as formatted errors; fall back
	// to the fault-code text.
	if strings.Contains(err.Error(), "soap:Client") {
		*f = &soap.Fault{Code: "soap:Client", String: err.Error()}
		return true
	}
	return false
}

// TestClassifyBatchNarrowBlock: a block narrower than the model's schema
// comes back as a soap:Client fault naming both widths, raised by the
// scorer's own check rather than by the server's panic recovery, on
// classifyBatch and regressBatch alike.
func TestClassifyBatchNarrowBlock(t *testing.T) {
	base := hostServices(t, NewClassifierService(harness.NewCachedBackend(8)), NewRegressorService())
	bc := datagen.BreastCancer()
	wn := datagen.WeatherNumeric()
	for _, tc := range []struct {
		service, op string
		train       *dataset.Dataset
		keep        []int
		parts       map[string]string
		want        string
	}{
		{"Classifier", "classifyBatch", bc, []int{0, 9},
			map[string]string{PartClassifier: "J48", PartAttribute: "Class"},
			"J48 instance has 2 values, model expects 10"},
		{"Regressor", "regressBatch", wn, []int{0, 2},
			map[string]string{PartRegressor: "LinearRegression", PartAttribute: "humidity"},
			"LinearRegression instance has 2 values, model expects 5"},
	} {
		narrow, err := tc.train.Project(tc.keep)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := wire.MarshalBase64(narrow)
		if err != nil {
			t.Fatal(err)
		}
		tc.parts[PartDataset] = arff.Format(tc.train)
		tc.parts[PartPayload] = payload
		tc.parts[PartEncoding] = wire.Encoding
		panics := obs.Default.Counter("soap_server_panics_total", "service="+tc.service, "op="+tc.op)
		before := panics.Value()
		_, err = soap.CallContext(context.Background(), base+"/services/"+tc.service, tc.op, tc.parts)
		var f *soap.Fault
		if !soapFaultAs(err, &f) {
			t.Fatalf("%s: error %v, want a SOAP fault", tc.op, err)
		}
		if f.Code != "soap:Client" || !strings.Contains(f.String, tc.want) {
			t.Fatalf("%s: fault %s %q, want soap:Client carrying %q", tc.op, f.Code, f.String, tc.want)
		}
		if strings.Contains(f.Detail, "panic") || panics.Value() != before {
			t.Fatalf("%s: fault came from a recovered panic: %+v", tc.op, f)
		}
	}
}

// TestClassifyBatchNegativeNominal: a block that declares a model's
// nominal columns numeric and carries -1 in them comes back as a
// soap:Client fault from the scorer's own check, not from the server's
// panic recovery.
func TestClassifyBatchNegativeNominal(t *testing.T) {
	base := hostServices(t, NewClassifierService(harness.NewCachedBackend(8)))
	bc := datagen.BreastCancer()
	attrs := make([]*dataset.Attribute, len(bc.Attrs))
	cols := bc.Columns()
	for col, a := range bc.Attrs {
		attrs[col] = a
		if col != bc.ClassIndex {
			attrs[col] = dataset.NewNumericAttribute(a.Name)
			cols[col] = make([]float64, len(cols[col]))
			for i := range cols[col] {
				cols[col][i] = -1
			}
		}
	}
	block, err := dataset.FromColumns(bc.Relation, attrs, bc.ClassIndex, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.MarshalBase64(block)
	if err != nil {
		t.Fatal(err)
	}
	panics := obs.Default.Counter("soap_server_panics_total", "service=Classifier", "op=classifyBatch")
	for _, name := range []string{"J48", "RandomForest", "NaiveBayes", "OneR"} {
		before := panics.Value()
		_, err := soap.CallContext(context.Background(), base+"/services/Classifier", "classifyBatch", map[string]string{
			PartDataset:    arff.Format(bc),
			PartClassifier: name,
			PartAttribute:  "Class",
			PartPayload:    payload,
			PartEncoding:   wire.Encoding,
		})
		var f *soap.Fault
		if !soapFaultAs(err, &f) {
			t.Fatalf("%s: error %v, want a SOAP fault", name, err)
		}
		if f.Code != "soap:Client" || !strings.Contains(f.String, "holds -1") {
			t.Errorf("%s: fault %s %q, want soap:Client naming the value", name, f.Code, f.String)
		}
		if strings.Contains(f.Detail, "panic") || panics.Value() != before {
			t.Errorf("%s: fault came from a recovered panic: %+v", name, f)
		}
	}
}
