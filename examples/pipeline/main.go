// Pipeline walks the five-stage discovery workflow of §3.1 against live
// services: (1) select a data set, (2) select a data mining algorithm from
// the service's list, (3) select the resource via the registry, (4) execute
// remotely, (5) present the model and verify it with a held-out test set —
// then plots the per-algorithm accuracies with the GNUPlot-substitute Plot
// service.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/soap"
)

func main() {
	dep, err := core.Deploy("127.0.0.1:0", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	// Stage 1: data selection (with a 66/34 split for later verification).
	full := datagen.BreastCancer()
	train, test, err := dataset.StratifiedSplit(full, 0.66, rand.New(rand.NewSource(9)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 1: %s, %d train / %d test\n", full.Relation,
		train.NumInstances(), test.NumInstances())

	// Stage 2: algorithm selection from the live service, through the
	// typed client rather than raw SOAP parts.
	client := core.NewClient(dep.BaseURL)
	offered, err := client.Classifiers(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 2: service offers %d algorithms\n", len(offered))
	candidates := []string{"ZeroR", "OneR", "NaiveBayes", "J48"}

	// Stage 3: resource selection via the registry.
	entry, ok := dep.Registry.Get("Classifier")
	if !ok {
		log.Fatal("Classifier not registered")
	}
	fmt.Printf("stage 3: resource %s\n", entry.Endpoint)

	// Stages 4-5: execute each candidate remotely (At pins Train to the
	// registry-selected endpoint), then verify locally on the held-out
	// share.
	var plotPoints strings.Builder
	for i, name := range candidates {
		if _, err := client.At(entry.Endpoint).Train(context.Background(), core.TrainOptions{
			Dataset: train, Classifier: name, Class: "Class",
		}); err != nil {
			log.Fatalf("remote %s: %v", name, err)
		}
		c, err := classify.New(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Train(train); err != nil {
			log.Fatal(err)
		}
		ev, err := classify.NewEvaluation(test)
		if err != nil {
			log.Fatal(err)
		}
		if err := ev.TestModel(c, test); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stage 4/5: %-12s held-out accuracy %.3f kappa %.3f\n",
			name, ev.Accuracy(), ev.Kappa())
		fmt.Fprintf(&plotPoints, "%d,%.4f\n", i, ev.Accuracy())
	}

	// Visualise the comparison via the Plot Web Service.
	plot, err := soap.CallContext(context.Background(), dep.EndpointURL("Plot"), "plot",
		map[string]string{"points": plotPoints.String()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nheld-out accuracy by algorithm index (Plot service):")
	fmt.Print(plot["plot"])
}
