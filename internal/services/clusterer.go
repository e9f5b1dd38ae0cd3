package services

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/soap"
	"repro/internal/viz"
	"repro/internal/wire"
)

// NewClustererService builds the general Clustering Web Service (§4.1 names
// clustering as the second service family):
//
//	getClusterers                      -> algorithm names
//	getOptions(clusterer)              -> JSON option descriptors
//	cluster(dataset, clusterer, options) -> textual clustering summary
//	assign(dataset, instances, clusterer, options) -> per-row labels (XML twin
//	                                                  of clusterBatch)
//	clusterBatch(dataset?, clusterer, options, payload) -> DMC1 result block
func NewClustererService() *Service {
	return register(serviceDesc{
		Name:     "Clusterer",
		Version:  "1.1",
		Category: "clustering",
		Doc:      "General clustering wrapper: apply any registered clusterer to an ARFF dataset (§4.1).",
		Ops: []op{
			listOp("getClusterers", "List the clustering algorithms known to the service.",
				partClusterers, cluster.Registry),
			optionsOp("Describe the run-time options of a clusterer.", PartClusterer, cluster.Registry),
			{
				Name: "cluster",
				Doc:  "Apply the named clustering algorithm to an ARFF dataset.",
				In:   []string{PartDataset, PartClusterer, PartOptions},
				Out:  []string{partSummary, PartClusters, partSilhouette},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					d, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					c, name, err := buildFromParts(cluster.Registry, parts, PartClusterer)
					if err != nil {
						return nil, err
					}
					if err := cluster.BuildWith(ctx, c, d); err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					assign, err := cluster.Assignments(c, d)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					var b strings.Builder
					fmt.Fprintf(&b, "%s: %d clusters over %d instances\n\n", name, c.NumClusters(), d.NumInstances())
					b.WriteString(viz.ClusterSummary(assign, maxAssign(assign)+1))
					out := map[string]string{
						"summary":  b.String(),
						"clusters": fmt.Sprintf("%d", c.NumClusters()),
					}
					// Internal quality measure when the data is numeric and
					// clustered into at least two groups.
					if sil, err := cluster.Silhouette(d, assign, c.NumClusters()); err == nil {
						out["silhouette"] = fmt.Sprintf("%.4f", sil)
					}
					return out, nil
				},
			},
			{
				Name: "assign",
				Doc: "Build a clusterer on the dataset and label the given instances " +
					"(one textual label per line). The per-instance XML twin of " +
					"clusterBatch — prefer clusterBatch for bulk scoring.",
				In:  []string{PartDataset, PartInstances, PartClusterer, PartOptions},
				Out: []string{PartLabels, PartClusters},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					d, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					c, _, err := buildFromParts(cluster.Registry, parts, PartClusterer)
					if err != nil {
						return nil, err
					}
					if err := cluster.BuildWith(ctx, c, d); err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					score := d
					if optional(parts, PartInstances) != "" {
						if score, err = parseDataset(parts, PartInstances); err != nil {
							return nil, err
						}
					}
					labels := make([]string, score.NumInstances())
					for i, in := range score.Instances {
						cl, err := c.Assign(in)
						if err != nil {
							return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
						}
						labels[i] = strconv.Itoa(cl)
					}
					return map[string]string{
						PartLabels:   strings.Join(labels, "\n"),
						PartClusters: strconv.Itoa(c.NumClusters()),
					}, nil
				},
			},
			{
				Name: "clusterBatch",
				Doc: "Build a clusterer (on the optional ARFF dataset part, else on the " +
					"payload itself) and assign every payload row in one columnar pass. " +
					"The payload is a base64 dmb1 block; the reply is a DMC1 result " +
					"block: assignments plus per-cluster distance or responsibility " +
					"columns when the algorithm provides them.",
				In:  []string{PartDataset, PartClusterer, PartOptions, PartPayload, PartEncoding},
				Out: []string{PartPayload, PartRows, PartClusters, PartEncoding},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					batch, err := decodeBatchPayload(parts, "clusterBatch")
					if err != nil {
						return nil, err
					}
					c, _, err := buildFromParts(cluster.Registry, parts, PartClusterer)
					if err != nil {
						return nil, err
					}
					build := batch
					if optional(parts, PartDataset) != "" {
						if build, err = parseDataset(parts, PartDataset); err != nil {
							return nil, err
						}
					}
					if err := cluster.BuildWith(ctx, c, build); err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					assign, scores, kind, err := cluster.AssignAll(c, batch)
					if err != nil {
						return nil, asFault(err)
					}
					res, err := wire.MarshalClusterResultBase64(&wire.ClusterResult{
						Clusters:    c.NumClusters(),
						ScoreKind:   kind.String(),
						Assignments: assign,
						Scores:      scores,
					})
					out, err := blockReply(res, err, len(assign))
					if err == nil {
						out[PartClusters] = strconv.Itoa(c.NumClusters())
					}
					return out, err
				},
			},
		},
	})
}

func maxAssign(assign []int) int {
	m := 0
	for _, a := range assign {
		if a > m {
			m = a
		}
	}
	return m
}

// NewCobwebService builds the dedicated Cobweb Web Service of §4.1:
//
//	cluster(dataset, options)        -> textual clustering result
//	getCobwebGraph(dataset, options) -> the concept hierarchy (indented text
//	                                    plus DOT) for the tree plotter
func NewCobwebService() *Service {
	build := func(ctx context.Context, parts map[string]string) (*cluster.Cobweb, error) {
		d, err := parseDataset(parts, "dataset")
		if err != nil {
			return nil, err
		}
		opts, err := parseOptions(parts, PartOptions)
		if err != nil {
			return nil, err
		}
		c, err := cluster.Registry.Build("Cobweb", opts)
		if err != nil {
			return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
		cw := c.(*cluster.Cobweb)
		if err := cluster.BuildWith(ctx, cw, d); err != nil {
			return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
		}
		return cw, nil
	}
	return register(serviceDesc{
		Name:     "Cobweb",
		Version:  "1.1",
		Category: "clustering",
		Doc:      "Dedicated Cobweb conceptual-clustering service with concept-hierarchy output (§4.1).",
		Ops: []op{
			{
				Name: "cluster",
				Doc:  "Apply the Cobweb algorithm to an ARFF dataset; returns a textual result.",
				In:   []string{PartDataset, PartOptions},
				Out:  []string{partSummary, PartClusters},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					cw, err := build(ctx, parts)
					if err != nil {
						return nil, err
					}
					return map[string]string{
						"summary":  fmt.Sprintf("Cobweb: %d leaf concepts\n\n%s", cw.NumClusters(), cw.GraphString()),
						"clusters": fmt.Sprintf("%d", cw.NumClusters()),
					}, nil
				},
			},
			{
				Name: "getCobwebGraph",
				Doc:  "Return the Cobweb concept hierarchy for plotting.",
				In:   []string{PartDataset, PartOptions},
				Out:  []string{partGraph, partText},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					cw, err := build(ctx, parts)
					if err != nil {
						return nil, err
					}
					return map[string]string{
						"graph": viz.CobwebDOT(cw.Root()),
						"text":  cw.GraphString(),
					}, nil
				},
			},
		},
	})
}
