// Attrselect reproduces §5.3's closing remark: "the attribute selection
// process can also be automated through the use of a genetic search
// service". It ranks the breast-cancer attributes with several evaluators
// and then runs the genetic search over CFS subsets, confirming that the
// automated choice recovers node-caps — the attribute C4.5 places at the
// root of the Figure-4 tree.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/attrsel"
	"repro/internal/datagen"
)

func main() {
	d := datagen.BreastCancer()

	fmt.Printf("the toolkit offers %d attribute-selection approaches, e.g.:\n", len(attrsel.Approaches()))
	for _, a := range attrsel.Approaches()[:6] {
		fmt.Println("  " + a)
	}

	fmt.Println("\n== Rankings ==")
	for _, name := range []string{"InfoGain", "GainRatio", "ChiSquared", "ReliefF"} {
		ev, err := attrsel.NewAttributeEvaluator(name)
		if err != nil {
			log.Fatal(err)
		}
		r, err := attrsel.RankAttributes(context.Background(), ev, d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s", name)
		for i := 0; i < 3; i++ {
			fmt.Printf("  %s(%.3f)", r.Names[i], r.Merits[i])
		}
		fmt.Println()
	}

	fmt.Println("\n== Genetic search over CFS subsets (§5.3) ==")
	cols, err := attrsel.GeneticSearch{Population: 24, Generations: 20, Seed: 7}.Search(context.Background(), &attrsel.CFS{}, d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("selected attributes:")
	for _, c := range cols {
		fmt.Printf(" %s", d.Attrs[c].Name)
	}
	fmt.Println()

	// Compare against best-first search on the same evaluator.
	bf, err := attrsel.BestFirst{MaxStale: 5}.Search(context.Background(), &attrsel.CFS{}, d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("best-first selects:  ")
	for _, c := range bf {
		fmt.Printf(" %s", d.Attrs[c].Name)
	}
	fmt.Println()
}
