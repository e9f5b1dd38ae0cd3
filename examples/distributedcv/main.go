// Distributedcv realises Grid WEKA's headline capability (§2) with the
// toolkit's own pieces: cross-validation distributed "across several
// computers contained within an ad-hoc Grid". Three deployments stand in
// for grid nodes; each fold's train/evaluate job goes out through the
// typed client (round-robin over the nodes), with a dead node exercising
// the fault-tolerant migration path: a fold whose assigned node is gone
// fails over to the next live endpoint.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/resilience"
)

func main() {
	// Three "grid nodes".
	var nodes []*core.Deployment
	for i := 0; i < 3; i++ {
		dep, err := core.Deploy("127.0.0.1:0", nil)
		if err != nil {
			log.Fatal(err)
		}
		defer dep.Close()
		nodes = append(nodes, dep)
		fmt.Printf("node %d at %s\n", i, dep.BaseURL)
	}
	// Kill node 2 to exercise migration.
	if err := nodes[2].Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("node 2 has failed; its jobs will migrate")

	d := datagen.BreastCancer()
	const k = 6
	folds, err := dataset.FoldsView(d, k, rand.New(rand.NewSource(3)))
	if err != nil {
		log.Fatal(err)
	}

	// One typed client serves every node: At pins each call to the
	// Classifier endpoint the pool picked.
	client := core.NewClient(nodes[0].BaseURL)
	ctx := context.Background()
	endpoints := make([]string, len(nodes))
	for i, n := range nodes {
		endpoints[i] = n.EndpointURL("Classifier")
	}

	// Dispatch each fold through a pool of the nodes' endpoints, which
	// takes them in turn; a fold that lands on the dead node migrates to a
	// live one on the pool's retry (resilience.Pool.Do).
	reg := obs.NewRegistry()
	pool := resilience.NewPool(endpoints, resilience.WithObserver(reg))
	pol := &resilience.Policy{MaxAttempts: len(endpoints), BackoffBase: time.Millisecond}
	var remote []string
	for i := 0; i < k; i++ {
		train, _ := dataset.TrainTestViewForFold(d, folds, i)
		opts := core.TrainOptions{
			Dataset:    train.Materialize(),
			Classifier: "J48",
			Class:      "Class",
		}
		var res *core.TrainResult
		if _, err := pool.Do(ctx, pol, nil, func(ctx context.Context, ep string) (err error) {
			res, err = client.At(ep).Train(ctx, opts)
			return err
		}); err != nil {
			log.Fatalf("fold %d failed on every node: %v", i, err)
		}
		remote = append(remote, fmt.Sprintf("%.3f", res.Accuracy))
	}
	migrations := reg.Counter("resilience_retries_total").Value()
	fmt.Printf("\n%d fold jobs completed, %d migrated off the dead node\n", k, migrations)
	fmt.Printf("per-fold remote training accuracies: %s\n", strings.Join(remote, " "))

	// Local verification pass (the Grid-WEKA "cross-validation" task run
	// with the library directly, pooling held-out folds).
	ev, err := classify.CrossValidateContext(context.Background(),
		func() classify.Classifier { return classify.NewJ48() }, d, k, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pooled %d-fold cross-validated accuracy: %.3f (kappa %.3f)\n",
		k, ev.Accuracy(), ev.Kappa())
}
