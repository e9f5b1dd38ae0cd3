package services

import (
	"context"

	"repro/internal/classify"
	"repro/internal/harness"
	"repro/internal/soap"
	"repro/internal/viz"
)

// NewJ48Service builds the dedicated J48 Web Service of §4.1, "a decision
// tree classifier based on the C4.5 algorithm" with the two key options the
// paper describes:
//
//	classify(dataset, options, attribute)      -> textual decision tree
//	classifyGraph(dataset, options, attribute) -> DOT decision tree
func NewJ48Service(backend harness.Backend) *Service {
	train := func(ctx context.Context, parts map[string]string) (*classify.J48, error) {
		parts2 := map[string]string{
			"dataset":    parts["dataset"],
			"classifier": "J48",
			"options":    parts["options"],
			"attribute":  parts["attribute"],
		}
		c, _, _, err := trainFromParts(ctx, backend, parts2)
		if err != nil {
			return nil, err
		}
		j, ok := c.(*classify.J48)
		if !ok {
			return nil, &soap.Fault{Code: "soap:Server", String: "backend returned a non-J48 instance"}
		}
		return j, nil
	}
	return register(serviceDesc{
		Name:     "J48",
		Version:  "1.1",
		Category: "classifier",
		Doc:      "Dedicated C4.5 (J48) decision-tree classifier service (§4.1).",
		Ops: []op{
			{
				Name: "classify",
				Doc:  "Apply the C4.5 (J48) algorithm to an ARFF dataset; returns the textual decision tree.",
				In:   []string{PartDataset, PartOptions, PartAttribute},
				Out:  []string{partTree},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					j, err := train(ctx, parts)
					if err != nil {
						return nil, err
					}
					return map[string]string{"tree": j.String()}, nil
				},
			},
			{
				Name: "classifyGraph",
				Doc:  "Like classify but returns a graphical (DOT) representation of the decision tree.",
				In:   []string{PartDataset, PartOptions, PartAttribute},
				Out:  []string{partGraph},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					j, err := train(ctx, parts)
					if err != nil {
						return nil, err
					}
					return map[string]string{"graph": viz.TreeDOT(j.Tree())}, nil
				},
			},
		},
	})
}
