package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/arff"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/services"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/wire"
)

// replayer pushes generated requests stage by stage through the public
// functions of each layer and times every stage. It runs one request at
// a time, after the closed-loop phases, against an idle deployment.
//
// Server-side stages are replayed, not observed in situ: the service
// twins below are backed like the deployed services, so they do the work
// those did, in this goroutine.
type replayer struct {
	sc       *soap.Client
	twins    map[string]*services.Service
	echo     *httptest.Server
	echoed   atomic.Pointer[map[string]string] // reply parts the echo endpoint returns
	admitted http.Handler
	// backend is configured like the deployment's; reg is its private
	// registry, which tells the tier of each acquire apart.
	backend *harness.CachedBackend
	reg     *obs.Registry

	tierUS        map[string][]float64 // acquire time by tier
	snapshotBytes []float64
	payloadBytes  int // base64 request payload bytes and the rows they carry
	payloadRows   int
	envelopeBytes int // request plus reply envelope bytes, over hops
	hops          int
	decodeAllocs  uint64 // mallocs inside wire.UnmarshalBase64, and rows decoded
	decodeRows    int
}

// echoOps are the operations the replay sends to the echo endpoint.
var echoOps = []string{"classifyBatch", "classify", "createSession", "filterBatch", "clusterBatch"}

func newReplayer(ctx context.Context, in *instance) (*replayer, error) {
	r := &replayer{sc: in.client.Raw(), reg: obs.NewRegistry(), tierUS: map[string][]float64{}}
	// newBackend is configured like the deployment's. With a store, the
	// Session twin and the acquire stage each get their own pool over the
	// deployment's store, so that each meets a session as rarely as the
	// deployment does and restores it; without one, only the deployment's
	// own pool holds the sessions, and the twin shares it.
	newBackend := func() *harness.CachedBackend {
		b := harness.NewCachedBackend(64) // core.Deploy's default pool
		if in.storeBacked {
			b.MaxEntries, b.Durable = resumePoolCap, in.dep.ModelStore()
		}
		b.Obs = r.reg
		return b
	}
	r.backend = newBackend()
	sessionBackend := in.dep.Backend
	if in.storeBacked {
		sessionBackend = newBackend()
	}
	r.twins = map[string]*services.Service{
		"Session":   services.NewSessionService(sessionBackend),
		"Filter":    services.NewFilterService(),
		"Clusterer": services.NewClustererService(),
	}
	// The echo endpoint answers any operation with the reply parts last
	// stored, so a call to it costs the HTTP exchange of a same-size
	// request and reply, their four codec passes, and nothing else.
	ep := soap.NewEndpoint("Echo")
	ep.Observer = r.reg
	for _, op := range echoOps {
		ep.Handle(op, func(context.Context, map[string]string) (map[string]string, error) {
			return *r.echoed.Load(), nil
		})
	}
	r.echo = httptest.NewServer(ep)
	r.echoed.Store(&map[string]string{})
	if _, err := r.sc.CallContext(ctx, r.echo.URL, echoOps[0], nil); err != nil { // opens the connection
		r.close()
		return nil, err
	}
	// Admission is timed around a handler that does nothing, so the
	// figure is the controller's own cost per admitted request.
	r.admitted = admission.NewController(admission.Config{Observer: r.reg}).
		Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))

	// Acquire every session twice: the first is a rebuild (or, with a
	// store, a restore), the second a memory hit. This yields samples of
	// the tiers the replayed requests themselves never reach.
	for _, s := range in.sessions {
		if in.storeBacked && !r.backend.Durable.Has(s.key) {
			r.close()
			return nil, fmt.Errorf("session key %s is not in the model store: the benchmark's key derivation has drifted from the service's", s.key)
		}
		for k := 0; k < 2; k++ {
			if err := r.acquire(ctx, &node{}, s); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	return r, nil
}

func (r *replayer) close() { r.echo.Close() }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hop replays one SOAP exchange under parent: request marshal, the HTTP
// exchange, admission, the service, reply unmarshal. server, when set,
// times the operation's own stages under the service span, given the
// decoded payload. It returns the reply parts.
func (r *replayer) hop(ctx context.Context, parent *node, service, op string, parts map[string]string,
	server func(serve *node, batch *dataset.Dataset) error) (map[string]string, error) {
	var (
		reqEnv []byte
		err    error
	)
	marshalReq := parent.time("soap.marshal", func() {
		reqEnv, err = soap.Marshal(soap.Message{Operation: op, Parts: parts})
	})
	if err != nil {
		return nil, err
	}

	// The service first: its reply sizes the echo.
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/services/"+service, bytes.NewReader(reqEnv))
	serve := &node{name: "services.serve"}
	began := time.Now()
	r.twins[service].Endpoint.ServeHTTP(rec, hreq)
	serve.dur = time.Since(began)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("replay %s.%s: HTTP %d: %.200s", service, op, rec.Code, rec.Body.String())
	}
	replyEnv := rec.Body.Bytes()

	unmarshalReq := serve.time("soap.unmarshal", func() { _, err = soap.Unmarshal(bytes.NewReader(reqEnv)) })
	if err != nil {
		return nil, err
	}
	var batch *dataset.Dataset
	if payload, ok := parts[services.PartPayload]; ok {
		before := memNow()
		serve.time("wire.decode", func() { batch, err = wire.UnmarshalBase64(payload) })
		if err != nil {
			return nil, err
		}
		r.decodeAllocs += memNow().since(before).mallocs
		r.decodeRows += batch.NumInstances()
	}
	if server != nil {
		if err := server(serve, batch); err != nil {
			return nil, err
		}
	}
	var reply soap.Message
	began = time.Now()
	reply, err = soap.Unmarshal(bytes.NewReader(replyEnv))
	unmarshalReply := time.Since(began)
	if err != nil {
		return nil, err
	}
	marshalReply := serve.time("soap.marshal", func() { _, err = soap.Marshal(reply) })
	if err != nil {
		return nil, err
	}

	r.echoed.Store(&reply.Parts)
	began = time.Now()
	if _, err = r.sc.CallContext(ctx, r.echo.URL, op, parts); err != nil {
		return nil, err
	}
	exchange := time.Since(began)
	parent.add("soap.http", exchange-marshalReq.dur-unmarshalReq.dur-marshalReply.dur-unmarshalReply)
	gate, greq := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/services/"+service, nil)
	parent.time("admission.wrap", func() { r.admitted.ServeHTTP(gate, greq) })
	parent.children = append(parent.children, serve)
	parent.add("soap.unmarshal", unmarshalReply)
	r.envelopeBytes += len(reqEnv) + len(replyEnv)
	r.hops++
	return reply.Parts, nil
}

// tierCounts reads the backend's hit, restore and build counters.
func (r *replayer) tierCounts() [3]int64 {
	return [3]int64{
		r.reg.Counter("harness_cache_hits_total").Value(),
		r.reg.Counter("harness_store_restores_total").Value(),
		r.reg.Counter("harness_builds_total").Value(),
	}
}

// timedAcquire times one harness invocation and files it under the tier
// that served it. got, when set, receives the instance.
func (r *replayer) timedAcquire(ctx context.Context, parent *node, key string, build harness.Builder,
	got func(classify.Classifier)) (*node, string, error) {
	before := r.tierCounts()
	var err error
	n := parent.time("harness.acquire", func() {
		err = harness.InvokeContext(ctx, r.backend, key, build, func(c classify.Classifier) error {
			if got != nil {
				got(c)
			}
			return nil
		})
	})
	if err != nil {
		return nil, "", err
	}
	after := r.tierCounts()
	tier := "memory"
	switch {
	case after[1] > before[1]:
		tier = "store"
	case after[2] > before[2]:
		tier = "rebuild"
	}
	r.tierUS[tier] = append(r.tierUS[tier], us(n.dur))
	return n, tier, nil
}

// acquire replays the model acquisition of a session call. A restore
// from the store is split into its two halves.
func (r *replayer) acquire(ctx context.Context, parent *node, s *session) error {
	n, tier, err := r.timedAcquire(ctx, parent, s.key, services.TrainBuilderContext(ctx, s.alg, s.opts, s.train), nil)
	if err != nil || tier != "store" {
		return err
	}
	var blob []byte
	n.time("store.get", func() { blob, _, err = r.backend.Durable.Get(s.key) })
	if err != nil {
		return err
	}
	n.time("model.unmarshal", func() { _, err = model.Unmarshal(blob) })
	r.snapshotBytes = append(r.snapshotBytes, float64(len(blob)))
	return err
}

// classifyBatch replays a Session classifyBatch of the view.
func (r *replayer) classifyBatch(ctx context.Context, root *node, s *session, view *dataset.View) error {
	var (
		d       *dataset.Dataset
		payload string
		err     error
	)
	root.time("dataset.materialize", func() { d = view.Materialize() })
	root.time("wire.encode", func() { payload, err = wire.MarshalBase64(d) })
	if err != nil {
		return err
	}
	r.payloadBytes += len(payload)
	r.payloadRows += d.NumInstances()
	reply, err := r.hop(ctx, root, "Session", "classifyBatch", map[string]string{
		services.PartSession:  s.token,
		services.PartPayload:  payload,
		services.PartEncoding: wire.Encoding,
	}, func(serve *node, batch *dataset.Dataset) error {
		if err := r.acquire(ctx, serve, s); err != nil {
			return err
		}
		var (
			labels []int
			dists  [][]float64
			err    error
		)
		serve.time("classify.kernel", func() { labels, dists, err = classify.PredictBatch(s.model, batch) }).rows = batch.NumInstances()
		if err != nil {
			return err
		}
		// The transpose is the service's own work, so it stays untimed
		// here and shows as services self time.
		classes := batch.ClassAttribute().Values()
		cols := make([][]float64, len(classes))
		for c := range cols {
			cols[c] = make([]float64, len(labels))
			for i := range labels {
				cols[c][i] = dists[i][c]
			}
		}
		serve.time("wire.result_encode", func() {
			_, err = wire.MarshalResultBase64(&wire.Result{Classes: classes, Labels: labels, Distributions: cols})
		})
		return err
	})
	if err != nil {
		return err
	}
	root.time("wire.result_decode", func() { _, err = wire.UnmarshalResultBase64(reply[services.PartPayload]) })
	return err
}

// createSession replays a createSession on train: a build, then the
// snapshot's two halves.
func (r *replayer) createSession(ctx context.Context, root *node, alg string, train *dataset.Dataset) error {
	class := train.ClassAttribute().Name
	_, err := r.hop(ctx, root, "Session", "createSession", map[string]string{
		services.PartDataset:    arff.Format(train),
		services.PartClassifier: alg,
		services.PartAttribute:  class,
	}, func(serve *node, _ *dataset.Dataset) error {
		seen, err := asServerSees(train)
		if err != nil {
			return err
		}
		// The twin service has just stored this model, so the stages
		// below write under keys of their own.
		key := services.InstanceKey(alg, map[string]string{}, seen, class) + "#replay"
		var built classify.Classifier
		n, _, err := r.timedAcquire(ctx, serve, key, services.TrainBuilderContext(ctx, alg, nil, seen),
			func(c classify.Classifier) { built = c })
		if err != nil {
			return err
		}
		n.time("classify.train", func() { _, err = trainLocal(ctx, alg, nil, seen) })
		if err != nil {
			return err
		}
		var blob []byte
		n.time("model.marshal", func() { blob, err = model.Marshal(built) })
		if err != nil {
			return err
		}
		n.time("store.put", func() {
			err = r.backend.Durable.Put(key+"#put", store.Meta{Algorithm: alg, Kind: "classifier"}, blob)
		})
		return err
	})
	return err
}

// chain replays the three hops of a pipeline_chain workflow run. reply is
// what the real run returned: its per-unit call times give the engine's
// own share of the root.
func (r *replayer) chain(ctx context.Context, root *node, payload string, reply *chainResult) error {
	var err error
	for _, name := range chainFilters {
		f := newChainFilter(name)
		out, herr := r.hop(ctx, root, "Filter", "filterBatch", map[string]string{
			services.PartPayload:  payload,
			services.PartEncoding: wire.Encoding,
			services.PartFilter:   name,
		}, func(serve *node, batch *dataset.Dataset) error {
			var (
				filtered *dataset.Dataset
				err      error
			)
			serve.time("filter.kernel", func() { filtered, err = filter.ApplyColumns(f, batch) }).rows = batch.NumInstances()
			if err != nil {
				return err
			}
			serve.time("wire.encode", func() { _, err = wire.MarshalBase64(filtered) })
			return err
		})
		if herr != nil {
			return herr
		}
		payload = out[services.PartPayload]
	}
	out, err := r.hop(ctx, root, "Clusterer", "clusterBatch", map[string]string{
		services.PartPayload:   payload,
		services.PartEncoding:  wire.Encoding,
		services.PartClusterer: "SimpleKMeans",
		services.PartOptions:   chainOptions,
	}, func(serve *node, batch *dataset.Dataset) error {
		c, err := newChainClusterer()
		if err != nil {
			return err
		}
		var res wire.ClusterResult
		serve.time("cluster.kernel", func() {
			if err = cluster.BuildWith(ctx, c, batch); err != nil {
				return
			}
			var kind cluster.ScoreKind
			res.Assignments, res.Scores, kind, err = cluster.AssignAll(c, batch)
			res.Clusters, res.ScoreKind = c.NumClusters(), kind.String()
		}).rows = batch.NumInstances()
		if err != nil {
			return err
		}
		serve.time("wire.result_encode", func() { _, err = wire.MarshalClusterResultBase64(&res) })
		return err
	})
	if err != nil {
		return err
	}
	decode := root.time("wire.result_decode", func() {
		_, err = wire.UnmarshalClusterResultBase64(out[services.PartPayload])
	})
	if err != nil {
		return err
	}
	units := decode.dur
	for _, d := range reply.steps {
		units += d
	}
	root.add("workflow.engine", root.dur-units)
	return nil
}
