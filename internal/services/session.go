package services

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/internal/classify"
	"repro/internal/harness"
	"repro/internal/soap"
)

// tokenPrefix versions the session token wire format.
const tokenPrefix = "dms1."

// sessionToken is the decoded form of a session identifier. The token is
// self-describing — it carries everything a replica needs to resume the
// session from the durable model store — so sessions survive the death of
// the replica that created them: any dmserver sharing the store directory
// can decode the token, look the key up, and answer from the snapshot
// without retraining.
type sessionToken struct {
	V    int               `json:"v"`
	Key  string            `json:"key"`
	Alg  string            `json:"alg"`
	Opts map[string]string `json:"opts,omitempty"`
	Attr string            `json:"attr,omitempty"`
}

func encodeToken(t sessionToken) string {
	b, _ := json.Marshal(t)
	return tokenPrefix + base64.RawURLEncoding.EncodeToString(b)
}

func decodeToken(s string) (sessionToken, error) {
	var t sessionToken
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, tokenPrefix) {
		return t, fmt.Errorf("services: %q is not a session token", s)
	}
	b, err := base64.RawURLEncoding.DecodeString(strings.TrimPrefix(s, tokenPrefix))
	if err != nil {
		return t, fmt.Errorf("services: malformed session token: %w", err)
	}
	if err := json.Unmarshal(b, &t); err != nil {
		return t, fmt.Errorf("services: malformed session token: %w", err)
	}
	if t.V != 1 || t.Key == "" || t.Alg == "" {
		return t, fmt.Errorf("services: session token missing required fields")
	}
	return t, nil
}

// Bounds for the per-replica side tables. Both are advisory caches, not
// correctness state: the token itself is the session.
const (
	maxLocalDatasets = 256  // creator-side retrain fallback
	maxClosedTokens  = 1024 // close/double-close bookkeeping
)

// NewSessionService implements the "session management" capability the
// paper's conclusion lists among its supporting services, motivated by
// §4.5: "most data mining services only require a single invocation ...
// [but] if an interactive session was expected this performance penalty was
// a severe limitation". A session trains a model once and keeps the
// instance live in the harness across any number of cheap follow-up
// invocations:
//
//	createSession(dataset, classifier, options, attribute) -> session token
//	classify(session, instances)                           -> labels
//	evaluate(session, dataset)                             -> evaluation + accuracy
//	getModel(session)                                      -> textual model
//	closeSession(session)
//
// The session identifier is a stateless, replica-portable token encoding
// the model-store key. With the backend's durable tier configured (a store
// directory shared between replicas), a token minted by one dmserver
// resumes on any other: the resuming replica restores the trained snapshot
// from the store instead of retraining. The replica that created the
// session additionally keeps the training dataset in a bounded local
// table, so it can rebuild even without a durable store (e.g. after an
// LRU eviction in a memory-only deployment).
func NewSessionService(backend harness.Backend) *Service {
	var (
		mu       sync.Mutex
		datasets = map[string]string{}   // key -> ARFF text (creator-local)
		closed   = map[string]struct{}{} // token -> closed here
	)
	rememberDataset := func(key, arff string) {
		mu.Lock()
		defer mu.Unlock()
		if len(datasets) >= maxLocalDatasets {
			for k := range datasets { // drop an arbitrary entry to stay bounded
				delete(datasets, k)
				break
			}
		}
		datasets[key] = arff
	}
	lookup := func(parts map[string]string) (sessionToken, error) {
		id, err := require(parts, "session")
		if err != nil {
			return sessionToken{}, err
		}
		t, err := decodeToken(id)
		if err != nil {
			return sessionToken{}, &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
		mu.Lock()
		_, isClosed := closed[strings.TrimSpace(id)]
		mu.Unlock()
		if isClosed {
			return sessionToken{}, &soap.Fault{Code: "soap:Client",
				String: fmt.Sprintf("session %q is closed", strings.TrimSpace(id))}
		}
		return t, nil
	}
	// withModel acquires the session's live instance and applies fn. The
	// read path is tiered: memory pool, then the durable store (which may
	// hold a snapshot written by another replica), then — only on the
	// replica that remembers the training data — a retrain.
	withModel := func(ctx context.Context, t sessionToken, fn func(classify.Classifier) error) error {
		mu.Lock()
		arff, haveData := datasets[t.Key]
		mu.Unlock()
		build := func() (classify.Classifier, error) {
			if !haveData {
				return nil, &soap.Fault{Code: "soap:Server",
					String: "session has no snapshot in the model store and this replica holds no training data; re-create the session"}
			}
			d, err := parseDataset(map[string]string{"dataset": arff}, "dataset")
			if err != nil {
				return nil, err
			}
			if t.Attr != "" {
				if err := d.SetClassByName(t.Attr); err != nil {
					return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
				}
			}
			return TrainBuilderContext(ctx, t.Alg, t.Opts, d)()
		}
		return harness.InvokeContext(ctx, backend, t.Key, build, fn)
	}
	return Register(ServiceDesc{
		Name:     "Session",
		Version:  "1.2",
		Category: "session-management",
		Doc:      "Interactive sessions: a replica-portable token resumes the trained model from the shared store on any dmserver (§4.5).",
		Ops: []Op{
			{
				Name: "createSession",
				Doc:  "Train a classifier once and mint a portable session token for interactive use (§4.5).",
				In:   []string{PartDataset, PartClassifier, PartOptions, PartAttribute},
				Out:  []string{PartSession, PartAlgorithm},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					// Validate by training once through the shared path; the
					// backend snapshots the instance into the durable store
					// when one is configured.
					c, _, key, err := trainFromParts(ctx, backend, parts)
					if err != nil {
						return nil, err
					}
					opts, err := parseOptions(parts, "options")
					if err != nil {
						return nil, err
					}
					rememberDataset(key, parts["dataset"])
					token := encodeToken(sessionToken{
						V:    1,
						Key:  key,
						Alg:  parts["classifier"],
						Opts: opts,
						Attr: optional(parts, PartAttribute),
					})
					return map[string]string{"session": token, "algorithm": c.Name()}, nil
				},
			},
			{
				Name: "classify",
				Doc:  "Label instances with the session's model.",
				In:   []string{PartSession, PartInstances},
				Out:  []string{PartLabels},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					t, err := lookup(parts)
					if err != nil {
						return nil, err
					}
					unlabelled, err := parseDataset(parts, "instances")
					if err != nil {
						return nil, err
					}
					if t.Attr != "" {
						if err := unlabelled.SetClassByName(t.Attr); err != nil {
							return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
						}
					}
					var labels []string
					err = withModel(ctx, t, func(c classify.Classifier) error {
						out, err := classify.Label(c, unlabelled)
						labels = out
						return err
					})
					if err != nil {
						return nil, asFault(err)
					}
					return map[string]string{"labels": strings.Join(labels, "\n")}, nil
				},
			},
			{
				Name: "classifyBatch",
				Doc: "Score a dmb1 binary batch with the session's model: one model restore, " +
					"N rows, a DMR1 block of labels and per-class distributions back.",
				In:  []string{PartSession, PartPayload, PartEncoding},
				Out: []string{PartPayload, PartRows, PartEncoding},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					t, err := lookup(parts)
					if err != nil {
						return nil, err
					}
					batch, err := decodeBatchPayload(parts, "classifyBatch")
					if err != nil {
						return nil, err
					}
					if t.Attr != "" && batch.ClassAttribute() == nil {
						if err := batch.SetClassByName(t.Attr); err != nil {
							return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
						}
					}
					var out map[string]string
					err = withModel(ctx, t, func(c classify.Classifier) error {
						out, err = scoreBatch(c, batch)
						return err
					})
					if err != nil {
						return nil, asFault(err)
					}
					return out, nil
				},
			},
			{
				Name: "evaluate",
				Doc:  "Evaluate the session's model on a labelled dataset.",
				In:   []string{PartSession, PartDataset},
				Out:  []string{PartEvaluation, PartAccuracy},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					t, err := lookup(parts)
					if err != nil {
						return nil, err
					}
					test, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					if t.Attr != "" {
						if err := test.SetClassByName(t.Attr); err != nil {
							return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
						}
					}
					out := map[string]string{}
					err = withModel(ctx, t, func(c classify.Classifier) error {
						ev, err := classify.NewEvaluation(test)
						if err != nil {
							return err
						}
						if err := ev.TestModel(c, test); err != nil {
							return err
						}
						out["evaluation"] = ev.String()
						out["accuracy"] = fmt.Sprintf("%.6f", ev.Accuracy())
						return nil
					})
					if err != nil {
						return nil, asFault(err)
					}
					return out, nil
				},
			},
			{
				Name: "getModel",
				Doc:  "Return the session model's textual form.",
				In:   []string{PartSession},
				Out:  []string{PartModel},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					t, err := lookup(parts)
					if err != nil {
						return nil, err
					}
					out := map[string]string{}
					err = withModel(ctx, t, func(c classify.Classifier) error {
						out["model"] = modelText(c)
						return nil
					})
					if err != nil {
						return nil, asFault(err)
					}
					return out, nil
				},
			},
			{
				Name: "closeSession",
				Doc:  "Release the session on this replica.",
				In:   []string{PartSession},
				Out:  []string{PartClosed},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					id, err := require(parts, "session")
					if err != nil {
						return nil, err
					}
					id = strings.TrimSpace(id)
					if _, err := decodeToken(id); err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					mu.Lock()
					defer mu.Unlock()
					if _, done := closed[id]; done {
						return nil, &soap.Fault{Code: "soap:Client",
							String: fmt.Sprintf("session %q is already closed", id)}
					}
					if len(closed) >= maxClosedTokens {
						for k := range closed { // bounded tombstone set
							delete(closed, k)
							break
						}
					}
					closed[id] = struct{}{}
					return map[string]string{"closed": id}, nil
				},
			},
		},
	})
}
