package core

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/soap"
)

// opRecorder is a SOAP endpoint that answers every typed-client op with
// a caller fault (so nothing retries) and records which ops reached it.
type opRecorder struct {
	*httptest.Server
	mu  sync.Mutex
	ops []string
}

func newOpRecorder(t *testing.T) *opRecorder {
	r := &opRecorder{}
	ep := soap.NewEndpoint("Recorder")
	for _, op := range []string{"getClassifiers", "classifyInstance", "crossValidate", "createSession",
		"closeSession", "classify", "classifyBatch", "clusterBatch", "regressBatch", "filterBatch"} {
		op := op
		ep.Handle(op, func(ctx context.Context, parts map[string]string) (map[string]string, error) {
			r.mu.Lock()
			r.ops = append(r.ops, op)
			r.mu.Unlock()
			return nil, &soap.Fault{Code: "soap:Client", String: "recorded"}
		})
	}
	r.Server = httptest.NewServer(ep)
	t.Cleanup(r.Close)
	return r
}

func (r *opRecorder) seen() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.ops...)
	sort.Strings(out)
	return out
}

// TestClientAtRoutesEveryCall: goroutines pinning one shared client to
// different endpoints at once (the dmsoak and distributedcv pattern)
// each land every typed call on their own endpoint, whatever service it
// would normally be routed to; nothing leaks to the base URL, and the
// receiver keeps routing by service name. Run under -race.
func TestClientAtRoutesEveryCall(t *testing.T) {
	base := newOpRecorder(t)
	c := NewClient(base.URL)
	ctx := context.Background()
	d := datagen.Weather()
	opts := TrainOptions{Dataset: d, Classifier: "J48"}
	v := dataset.NewView(d, []int{0, 1})
	num := datagen.GaussianClusters(2, 8, 2, 3, 1)

	pinned := []*opRecorder{newOpRecorder(t), newOpRecorder(t), newOpRecorder(t)}
	var wg sync.WaitGroup
	for _, r := range pinned {
		wg.Add(1)
		go func(at *Client) {
			defer wg.Done()
			// Each call faults at the recorder; only where it went matters.
			at.Classifiers(ctx)
			at.Train(ctx, opts)
			at.CreateSession(ctx, opts)
			at.CloseSession(ctx, "token")
			at.Classify(ctx, "token", d)
			at.ClassifyBatch(ctx, "token", v)
			at.ClusterBatch(ctx, ClusterBatchOptions{Batch: num, Clusterer: "SimpleKMeans"})
			at.RegressBatch(ctx, RegressBatchOptions{Train: num, Batch: num, Regressor: "LinearRegression"})
			at.FilterBatch(ctx, FilterBatchOptions{Dataset: num, Filter: "Normalize"})
			c.Classifiers(ctx) // the receiver, concurrently, unpinned
		}(c.At(r.URL + "/anywhere"))
	}
	wg.Wait()

	want := []string{"classify", "classifyBatch", "classifyInstance", "closeSession",
		"clusterBatch", "createSession", "filterBatch", "getClassifiers", "regressBatch"}
	for i, r := range pinned {
		if got := r.seen(); !reflect.DeepEqual(got, want) {
			t.Errorf("pinned endpoint %d saw %v\nwant %v", i, got, want)
		}
	}
	if got := base.seen(); !reflect.DeepEqual(got, []string{"getClassifiers", "getClassifiers", "getClassifiers"}) {
		t.Errorf("base URL saw %v, want only the receiver's own three calls", got)
	}
	if got, want := c.Endpoint("Session"), base.URL+"/services/Session"; got != want {
		t.Errorf("At changed its receiver: Endpoint(Session) = %s, want %s", got, want)
	}
}
