package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arff"
	"repro/internal/dataset"
	"repro/internal/services"
	"repro/internal/wire"
)

// BlockResult is the shared envelope of every block-returning batch
// call (ClusterBatch, RegressBatch, FilterBatch): the row count and
// encoding the service echoed, plus the raw base64 block so callers can
// forward it to another batch op without re-encoding.
type BlockResult struct {
	Rows     int
	Encoding string
	// Payload is the base64 result block exactly as it came off the
	// wire — feed it to FilterBatchOptions.Payload to chain hops.
	Payload string
}

// blockResult parses the shared reply parts.
func blockResult(out map[string]string) BlockResult {
	rows, _ := strconv.Atoi(out[services.PartRows])
	return BlockResult{
		Rows:     rows,
		Encoding: out[services.PartEncoding],
		Payload:  out[services.PartPayload],
	}
}

// optionsPart renders an options map as the JSON options part.
func optionsPart(parts map[string]string, opts map[string]string) error {
	if len(opts) == 0 {
		return nil
	}
	js, err := json.Marshal(opts)
	if err != nil {
		return fmt.Errorf("dm: encoding options: %w", err)
	}
	parts[services.PartOptions] = string(js)
	return nil
}

// ClusterBatchOptions names the inputs of a clusterBatch call.
type ClusterBatchOptions struct {
	// Batch holds the rows to assign; it ships as one dmb1 block.
	Batch *dataset.Dataset
	// Train, when non-nil, is the build set (sent as ARFF). Nil builds
	// the clusterer on the batch itself.
	Train     *dataset.Dataset
	Clusterer string
	Options   map[string]string
}

// ClusterBatchResult is a decoded DMC1 reply: one assignment per batch
// row, plus per-cluster score columns when the algorithm provides them.
type ClusterBatchResult struct {
	BlockResult
	Clusters    int
	ScoreKind   string // "", wire.ScoreDistance or wire.ScoreResponsibility
	Assignments []int
	Scores      [][]float64
}

// ClusterBatch builds a clusterer and assigns every batch row in one
// dmb1 round trip via the deployment's Clusterer service.
func (c *Client) ClusterBatch(ctx context.Context, o ClusterBatchOptions) (*ClusterBatchResult, error) {
	if o.Batch == nil {
		return nil, fmt.Errorf("dm: ClusterBatch needs a non-nil batch dataset")
	}
	if o.Clusterer == "" {
		return nil, fmt.Errorf("dm: ClusterBatch needs a clusterer name")
	}
	parts := map[string]string{services.PartClusterer: o.Clusterer}
	if err := batchPart(parts, o.Batch); err != nil {
		return nil, err
	}
	if o.Train != nil {
		parts[services.PartDataset] = arff.Format(o.Train)
	}
	if err := optionsPart(parts, o.Options); err != nil {
		return nil, err
	}
	out, err := c.call(ctx, c.Endpoint("Clusterer"), "clusterBatch", parts)
	if err != nil {
		return nil, err
	}
	res, err := wire.UnmarshalClusterResultBase64(out[services.PartPayload])
	if err != nil {
		return nil, fmt.Errorf("dm: decoding cluster result: %w", err)
	}
	if len(res.Assignments) != o.Batch.NumInstances() {
		return nil, fmt.Errorf("dm: cluster result has %d rows, sent %d",
			len(res.Assignments), o.Batch.NumInstances())
	}
	return &ClusterBatchResult{
		BlockResult: blockResult(out),
		Clusters:    res.Clusters,
		ScoreKind:   res.ScoreKind,
		Assignments: res.Assignments,
		Scores:      res.Scores,
	}, nil
}

// RegressBatchOptions names the inputs of a regressBatch call.
type RegressBatchOptions struct {
	// Train is the training set (sent as ARFF); required.
	Train *dataset.Dataset
	// Batch holds the rows to predict; it ships as one dmb1 block.
	Batch     *dataset.Dataset
	Regressor string
	Options   map[string]string
	// Target optionally names the numeric attribute to predict; blank
	// uses Train's designated class attribute.
	Target string
}

// RegressBatchResult is a decoded DMV1 reply: the predicted-value
// column for every batch row.
type RegressBatchResult struct {
	BlockResult
	Target string
	Values []float64
}

// RegressBatch trains a regressor and predicts every batch row in one
// dmb1 round trip via the deployment's Regressor service.
func (c *Client) RegressBatch(ctx context.Context, o RegressBatchOptions) (*RegressBatchResult, error) {
	if o.Train == nil || o.Batch == nil {
		return nil, fmt.Errorf("dm: RegressBatch needs train and batch datasets")
	}
	if o.Regressor == "" {
		return nil, fmt.Errorf("dm: RegressBatch needs a regressor name")
	}
	parts := map[string]string{
		services.PartDataset:   arff.Format(o.Train),
		services.PartRegressor: o.Regressor,
	}
	if err := batchPart(parts, o.Batch); err != nil {
		return nil, err
	}
	if o.Target != "" {
		parts[services.PartAttribute] = o.Target
	}
	if err := optionsPart(parts, o.Options); err != nil {
		return nil, err
	}
	out, err := c.call(ctx, c.Endpoint("Regressor"), "regressBatch", parts)
	if err != nil {
		return nil, err
	}
	res, err := wire.UnmarshalRegressResultBase64(out[services.PartPayload])
	if err != nil {
		return nil, fmt.Errorf("dm: decoding regress result: %w", err)
	}
	if len(res.Values) != o.Batch.NumInstances() {
		return nil, fmt.Errorf("dm: regress result has %d rows, sent %d",
			len(res.Values), o.Batch.NumInstances())
	}
	return &RegressBatchResult{
		BlockResult: blockResult(out),
		Target:      res.Target,
		Values:      res.Values,
	}, nil
}

// FilterBatchOptions names the inputs of a filterBatch call. Provide the
// rows either as a Dataset (encoded here) or as the Payload of a
// previous FilterBatchResult — chaining payloads keeps a multi-hop
// pipeline binary end to end, never materialising ARFF text.
type FilterBatchOptions struct {
	Dataset *dataset.Dataset
	// Payload is a base64 dmb1 block to transform, typically the
	// BlockResult.Payload of the previous hop. Ignored when Dataset is
	// set.
	Payload string
	// Filter names the transformation: Discretize, Normalize,
	// Standardize, ReplaceMissingValues, Remove or Keep.
	Filter string
	// Bins and EqualFrequency configure Discretize (zero values use the
	// service defaults).
	Bins           int
	EqualFrequency bool
	// Attributes configures Remove/Keep.
	Attributes []string
}

// FilterBatchResult is a filterBatch reply: the transformed block,
// decoded — and kept as BlockResult.Payload for the next hop.
type FilterBatchResult struct {
	BlockResult
	Dataset *dataset.Dataset
}

// FilterBatch transforms a dmb1 block with a dataset filter via the
// deployment's Filter service — the binary replacement for the textual
// apply op's ARFF round-trip.
func (c *Client) FilterBatch(ctx context.Context, o FilterBatchOptions) (*FilterBatchResult, error) {
	if o.Filter == "" {
		return nil, fmt.Errorf("dm: FilterBatch needs a filter name")
	}
	parts := map[string]string{
		services.PartPayload:  o.Payload,
		services.PartFilter:   o.Filter,
		services.PartEncoding: wire.Encoding,
	}
	if o.Dataset != nil {
		if err := batchPart(parts, o.Dataset); err != nil {
			return nil, err
		}
	} else if o.Payload == "" {
		return nil, fmt.Errorf("dm: FilterBatch needs a dataset or a payload")
	}
	if o.Bins > 0 {
		parts[services.PartBins] = strconv.Itoa(o.Bins)
	}
	if o.EqualFrequency {
		parts[services.PartEqualFrequency] = "true"
	}
	if len(o.Attributes) > 0 {
		parts[services.PartAttributes] = strings.Join(o.Attributes, ",")
	}
	out, err := c.call(ctx, c.Endpoint("Filter"), "filterBatch", parts)
	if err != nil {
		return nil, err
	}
	d, err := wire.UnmarshalBase64(out[services.PartPayload])
	if err != nil {
		return nil, fmt.Errorf("dm: decoding filtered block: %w", err)
	}
	return &FilterBatchResult{BlockResult: blockResult(out), Dataset: d}, nil
}
