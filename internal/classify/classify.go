// Package classify implements the classifier substrate of the toolkit: the
// algorithm families the paper's general Classifier Web Service exposes via
// its getClassifiers / getOptions / classifyInstance operations (§4.1).
//
// Every classifier implements Classifier; classifiers with tunable run-time
// parameters additionally implement Parameterized so the service layer can
// answer getOptions; incremental learners implement Updateable so they can
// consume remote data streams (§1, §3).
package classify

import (
	"context"
	"fmt"

	"repro/internal/algo"
	"repro/internal/dataset"
)

// Classifier is a trainable model over a dataset with a nominal class.
type Classifier interface {
	// Name returns the algorithm's registry name (e.g. "J48").
	Name() string
	// Train builds the model from the dataset's instances. The dataset's
	// ClassIndex must designate a nominal class attribute.
	Train(d *dataset.Dataset) error
	// Distribution returns the per-class-label probability estimate for the
	// instance. The slice is indexed by class-label index.
	Distribution(in *dataset.Instance) ([]float64, error)
}

// Parameterized exposes run-time options, mirroring the getOptions operation
// of the general Classifier Web Service.
type Parameterized = algo.Parameterized

// Updateable marks classifiers that can learn one instance at a time
// (streamed data, §3's "streaming of data from a remote machine").
type Updateable interface {
	Classifier
	// Begin prepares the model for incremental updates against the schema.
	Begin(schema *dataset.Dataset) error
	// Update folds one instance into the model.
	Update(in *dataset.Instance) error
}

// ContextTrainer marks classifiers whose training honours context
// cancellation — long-running ensemble or search-based learners. The
// evaluation layer trains through TrainWith, so a remote caller's
// deadline cancels in-flight member training instead of waiting it out.
type ContextTrainer interface {
	Classifier
	// TrainContext is Train with cooperative cancellation: it returns
	// ctx.Err() promptly once the context is done.
	TrainContext(ctx context.Context, d *dataset.Dataset) error
}

// TrainWith trains c under ctx: via TrainContext when the classifier
// supports it, otherwise a plain Train bracketed by ctx checks (the
// model still builds to completion, but a cancelled caller is answered
// as soon as training returns).
func TrainWith(ctx context.Context, c Classifier, d *dataset.Dataset) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ct, ok := c.(ContextTrainer); ok {
		return ct.TrainContext(ctx, d)
	}
	if err := c.Train(d); err != nil {
		return err
	}
	return ctx.Err()
}

// Option describes one run-time parameter of an algorithm, the unit of the
// getOptions reply.
type Option = algo.Option

// Predict returns the index of the most probable class label.
func Predict(c Classifier, in *dataset.Instance) (int, error) {
	dist, err := c.Distribution(in)
	if err != nil {
		return -1, err
	}
	if len(dist) == 0 {
		return -1, fmt.Errorf("classify: %s returned an empty distribution", c.Name())
	}
	best, bestP := 0, dist[0]
	for i, p := range dist {
		if p > bestP {
			best, bestP = i, p
		}
	}
	return best, nil
}

// Factory constructs a fresh, untrained classifier.
type Factory func() Classifier

// Registry holds every classifier the general Classifier Web Service
// offers: getClassifiers lists it, getOptions describes its entries.
var Registry = algo.NewRegistry[Classifier]("classify", "classifier")

// Register adds a classifier factory under name; see algo.Registry.
func Register(name string, f Factory) { Registry.Register(name, f) }

// New constructs a registered classifier by name.
func New(name string) (Classifier, error) { return Registry.New(name) }

// Names returns the sorted registry names — the getClassifiers reply.
func Names() []string { return Registry.Names() }

// Configure applies name=value options to a classifier in sorted name
// order; see algo.Registry.Configure.
func Configure(c Classifier, opts map[string]string) error { return Registry.Configure(c, opts) }

// checkTrainable validates a dataset for supervised training.
func checkTrainable(d *dataset.Dataset) error {
	if d == nil || d.NumInstances() == 0 {
		return fmt.Errorf("classify: empty training set")
	}
	ca := d.ClassAttribute()
	if ca == nil {
		return fmt.Errorf("classify: dataset %q has no class attribute", d.Relation)
	}
	if !ca.IsNominal() {
		return fmt.Errorf("classify: class attribute %q is not nominal", ca.Name)
	}
	if ca.NumValues() < 2 {
		return fmt.Errorf("classify: class attribute %q has %d labels; need at least 2",
			ca.Name, ca.NumValues())
	}
	return nil
}

// normalize scales dist to sum to one; an all-zero dist becomes uniform.
func normalize(dist []float64) []float64 {
	var sum float64
	for _, v := range dist {
		sum += v
	}
	if sum <= 0 {
		u := 1 / float64(len(dist))
		for i := range dist {
			dist[i] = u
		}
		return dist
	}
	for i := range dist {
		dist[i] /= sum
	}
	return dist
}
