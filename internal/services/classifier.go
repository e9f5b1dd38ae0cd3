package services

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/viz"
)

// NewClassifierService builds the paper's general Classifier Web Service
// (§4.1): a wrapper for the complete set of registered classifiers with the
// three operations the paper describes —
//
//	getClassifiers               -> newline-separated algorithm names
//	getOptions(classifier)       -> JSON option descriptors
//	classifyInstance(dataset, classifier, options, attribute)
//	                             -> textual model + evaluation summary
//
// plus classifyGraph, the graphical variant returning the model's decision
// tree in DOT when the algorithm produces one.
//
// backend manages trained-instance state across invocations (§4.5); pass a
// harness.CachedBackend for the paper's in-memory harness or a
// SerialisingBackend for the naive deployment.
func NewClassifierService(backend harness.Backend) *Service {
	return Register(ServiceDesc{
		Name:     "Classifier",
		Version:  "1.1",
		Category: "classifier",
		Doc:      "General classifier wrapper: train any registered algorithm on an ARFF dataset (§4.1).",
		Ops: []Op{
			listOp("getClassifiers", "List the classification algorithms known to the service.",
				PartClassifiers, classify.Registry),
			optionsOp("Describe the run-time options of a classifier.", PartClassifier, classify.Registry),
			{
				Name: "classifyInstance",
				Doc:  "Train the named classifier on an ARFF dataset and return the model and its evaluation.",
				In:   []string{PartDataset, PartClassifier, PartOptions, PartAttribute},
				Out:  []string{PartModel, PartEvaluation, PartAccuracy},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					c, d, _, err := trainFromParts(ctx, backend, parts)
					if err != nil {
						return nil, err
					}
					out := map[string]string{}
					out["model"] = modelText(c)
					ev, err := classify.NewEvaluation(d)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					if err := ev.TestModel(c, d); err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					out["evaluation"] = ev.String()
					out["accuracy"] = fmt.Sprintf("%.6f", ev.Accuracy())
					return out, nil
				},
			},
			{
				Name: "crossValidate",
				Doc:  "Stratified k-fold cross-validation of the named classifier, with parallel folds.",
				In:   []string{PartDataset, PartClassifier, PartOptions, PartAttribute, PartFolds, PartSeed},
				Out:  []string{PartEvaluation, PartAccuracy, PartFolds},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					d, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					name, err := require(parts, "classifier")
					if err != nil {
						return nil, err
					}
					opts, err := parseOptions(parts, "options")
					if err != nil {
						return nil, err
					}
					if attr := optional(parts, PartAttribute); attr != "" {
						if err := d.SetClassByName(attr); err != nil {
							return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
						}
					}
					folds, err := intPart(parts, "folds", 10)
					if err != nil {
						return nil, err
					}
					seed, err := intPart(parts, "seed", 1)
					if err != nil {
						return nil, err
					}
					factory, err := classify.Registry.Factory(name, opts)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					ev, err := classify.CrossValidateContext(ctx, factory, d, folds, int64(seed))
					if err != nil {
						if ctx.Err() != nil {
							return nil, err // deadline faults are mapped by the server layer
						}
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					return map[string]string{
						"evaluation": ev.String(),
						"accuracy":   fmt.Sprintf("%.6f", ev.Accuracy()),
						"folds":      fmt.Sprintf("%d", folds),
					}, nil
				},
			},
			{
				Name: "classifyBatch",
				Doc: "Train (or restore) the named classifier and score a dmb1 binary batch in one call: " +
					"N rows per invocation, one model restore amortised over all of them.",
				In:  []string{PartDataset, PartClassifier, PartOptions, PartAttribute, PartPayload, PartEncoding},
				Out: []string{PartPayload, PartRows, PartEncoding},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					c, _, _, err := trainFromParts(ctx, backend, parts)
					if err != nil {
						return nil, err
					}
					batch, err := decodeBatchPayload(parts, "classifyBatch")
					if err != nil {
						return nil, err
					}
					if attr := optional(parts, PartAttribute); attr != "" && batch.ClassAttribute() == nil {
						if err := batch.SetClassByName(attr); err != nil {
							return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
						}
					}
					return scoreBatch(c, batch)
				},
			},
			{
				Name: "classifyGraph",
				Doc:  "Like classifyInstance but returns the decision tree as a DOT graph.",
				In:   []string{PartDataset, PartClassifier, PartOptions, PartAttribute},
				Out:  []string{PartGraph},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					c, _, _, err := trainFromParts(ctx, backend, parts)
					if err != nil {
						return nil, err
					}
					type treer interface{ Tree() *classify.TreeNode }
					t, ok := c.(treer)
					if !ok || t.Tree() == nil {
						return nil, &soap.Fault{Code: "soap:Client",
							String: fmt.Sprintf("classifier %s does not produce a decision tree", c.Name())}
					}
					return map[string]string{"graph": viz.TreeDOT(t.Tree())}, nil
				},
			},
		},
	})
}

// trainFromParts resolves the four classifyInstance inputs (dataset,
// classifier name, options, class attribute) and returns a trained
// instance plus its content-addressed instance key, going through the
// backend so instance state follows the deployment's §4.5 strategy. The
// caller's ctx (carrying any propagated X-DM-Deadline) cancels in-flight
// training.
func trainFromParts(ctx context.Context, backend harness.Backend, parts map[string]string) (classify.Classifier, *dataset.Dataset, string, error) {
	d, err := parseDataset(parts, "dataset")
	if err != nil {
		return nil, nil, "", err
	}
	name, err := require(parts, "classifier")
	if err != nil {
		return nil, nil, "", err
	}
	opts, err := parseOptions(parts, "options")
	if err != nil {
		return nil, nil, "", err
	}
	attr := optional(parts, PartAttribute)
	if attr != "" {
		if err := d.SetClassByName(attr); err != nil {
			return nil, nil, "", &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
	}
	key := InstanceKey(name, opts, d, attr)
	build := TrainBuilderContext(ctx, name, opts, d)
	var trained classify.Classifier
	err = harness.InvokeContext(ctx, backend, key, build, func(c classify.Classifier) error {
		trained = c
		return nil
	})
	if err != nil {
		// The backend wraps builder errors, so unwrap to preserve the
		// original fault code (soap:Client for caller mistakes).
		var f *soap.Fault
		if errors.As(err, &f) {
			return nil, nil, "", f
		}
		return nil, nil, "", &soap.Fault{Code: "soap:Server", String: err.Error()}
	}
	return trained, d, key, nil
}

// TrainBuilderContext returns a harness.Builder that constructs,
// configures and trains the named classifier on d under ctx: context-
// aware learners (Bagging, RandomForest) stop member training promptly
// when the caller's propagated deadline expires.
func TrainBuilderContext(ctx context.Context, name string, opts map[string]string, d *dataset.Dataset) harness.Builder {
	return func() (classify.Classifier, error) {
		// An unknown algorithm or bad option is the caller's mistake: fault
		// it as soap:Client so clients (e.g. the experiment engine's remote
		// executor) know not to retry.
		c, err := classify.Registry.Build(name, opts)
		if err != nil {
			return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
		if err := classify.TrainWith(ctx, c, d); err != nil {
			return nil, err
		}
		return c, nil
	}
}

// InstanceKey derives the harness key identifying a trained instance: the
// algorithm, its options, the class attribute and the canonical dataset
// digest. Because the digest hashes parsed content rather than ARFF text,
// the same dataset reaches the same key regardless of formatting — and the
// key doubles as the content address under which the durable model store
// files the trained snapshot, so the memory tier and the store tier agree.
func InstanceKey(name string, opts map[string]string, d *dataset.Dataset, attribute string) string {
	return store.Key(name, opts, dataset.Digest(d), attribute)
}

// modelText renders a trained model for the textual reply.
func modelText(c classify.Classifier) string {
	if s, ok := c.(fmt.Stringer); ok {
		return s.String()
	}
	return c.Name() + " model (no textual representation)"
}
