package services

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arff"
	"repro/internal/datagen"
	"repro/internal/harness"
	"repro/internal/soap"
)

// catalogueFamilies are the three general algorithm services of §4.1 with
// the op that lists them and the part that names one algorithm.
var catalogueFamilies = []struct {
	service, listOp, nameList, namePart string
	svc                                 func() *Service
}{
	{"Classifier", "getClassifiers", "classifiers", PartClassifier,
		func() *Service { return NewClassifierService(harness.NewCachedBackend(1)) }},
	{"Clusterer", "getClusterers", "clusterers", PartClusterer, NewClustererService},
	{"Regressor", "getRegressors", "regressors", PartRegressor, NewRegressorService},
}

// TestCatalogueGolden holds the catalogue replies — the list op, getOptions
// for every listed algorithm — and the WSDL document of each general
// algorithm service to the bytes recorded in testdata/catalogue.
func TestCatalogueGolden(t *testing.T) {
	for _, fam := range catalogueFamilies {
		t.Run(fam.service, func(t *testing.T) {
			base := hostServices(t, fam.svc())
			url := base + "/services/" + fam.service
			replies := map[string]map[string]string{}
			out, err := soap.CallContext(context.Background(), url, fam.listOp, nil)
			if err != nil {
				t.Fatal(err)
			}
			replies[fam.listOp] = out
			for _, name := range strings.Split(out[fam.nameList], "\n") {
				opts, err := soap.CallContext(context.Background(), url, "getOptions",
					map[string]string{fam.namePart: name})
				if err != nil {
					t.Fatalf("getOptions(%s): %v", name, err)
				}
				replies["getOptions/"+name] = opts
			}
			got, err := json.MarshalIndent(replies, "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, fam.service+".replies.json", append(got, '\n'))

			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var doc bytes.Buffer
			if _, err := doc.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, fam.service+".wsdl",
				bytes.ReplaceAll(doc.Bytes(), []byte(base), []byte("http://localhost")))
		})
	}
}

func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "catalogue", file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden copy; got:\n%s", file, got)
	}
}

// TestOptionErrorsDeterministic sends one request carrying several bad
// options, many times: the fault must be the same on every call (options
// are applied in sorted name order, so the first bad name in that order
// answers).
func TestOptionErrorsDeterministic(t *testing.T) {
	cases := []struct {
		service, op string
		parts       map[string]string
	}{
		{"Clusterer", "cluster", map[string]string{
			"dataset": arff.Format(datagen.GaussianClusters(3, 20, 4, 3.0, 42)), "clusterer": "SimpleKMeans",
			"options": "k=x,seed=y,zz=1,aa=2"}},
		{"Regressor", "regress", map[string]string{
			"dataset": arff.Format(datagen.WeatherNumeric()), "regressor": "KNNRegressor",
			"attribute": "temperature",
			"options":   "k=x,distanceWeight=y,zz=1,aa=2"}},
	}
	base := hostServices(t, NewClustererService(), NewRegressorService())
	for _, tc := range cases {
		faults := map[string]int{}
		for i := 0; i < 40; i++ {
			_, err := soap.CallContext(context.Background(), base+"/services/"+tc.service, tc.op, tc.parts)
			f, ok := err.(*soap.Fault)
			if !ok {
				t.Fatalf("%s.%s: want a fault, got %v", tc.service, tc.op, err)
			}
			if f.Code != "soap:Client" {
				t.Fatalf("%s.%s: fault code %s", tc.service, tc.op, f.Code)
			}
			faults[f.String]++
		}
		if len(faults) != 1 {
			t.Errorf("%s.%s: %d distinct faults in 40 calls: %v", tc.service, tc.op, len(faults), faults)
		}
	}
}
