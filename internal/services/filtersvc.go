package services

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/arff"
	"repro/internal/filter"
	"repro/internal/soap"
	"repro/internal/wire"
)

// filterNames is the vocabulary the Filter service's filter part accepts.
var filterNames = []string{"Discretize", "Normalize", "Standardize", "ReplaceMissingValues", "Remove", "Keep"}

// filterFromParts constructs the named filter from the
// filter/bins/equalFrequency/attributes request parts — shared by the
// textual apply op and the columnar filterBatch op, so both accept the
// same vocabulary.
func filterFromParts(parts map[string]string) (filter.Filter, error) {
	name, err := require(parts, "filter")
	if err != nil {
		return nil, err
	}
	switch name {
	case "Discretize":
		disc := &filter.Discretize{Bins: 10}
		if v := strings.TrimSpace(parts["bins"]); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 2 {
				return nil, &soap.Fault{Code: "soap:Client", String: "bins must be an integer >= 2"}
			}
			disc.Bins = n
		}
		if v := strings.TrimSpace(parts["equalFrequency"]); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return nil, &soap.Fault{Code: "soap:Client", String: "equalFrequency must be boolean"}
			}
			disc.EqualFrequency = b
		}
		return disc, nil
	case "Normalize":
		return filter.Normalize{}, nil
	case "Standardize":
		return filter.Standardize{}, nil
	case "ReplaceMissingValues":
		return filter.ReplaceMissing{}, nil
	case "Remove", "Keep":
		var attrs []string
		for _, a := range strings.Split(parts["attributes"], ",") {
			if a = strings.TrimSpace(a); a != "" {
				attrs = append(attrs, a)
			}
		}
		if len(attrs) == 0 {
			return nil, &soap.Fault{Code: "soap:Client",
				String: name + " needs a comma-separated attributes part"}
		}
		if name == "Remove" {
			return filter.RemoveAttributes{Names: attrs}, nil
		}
		return filter.KeepAttributes{Names: attrs}, nil
	default:
		return nil, &soap.Fault{Code: "soap:Client",
			String: "unknown filter " + name + " (known: " + strings.Join(filterNames, ", ") + ")"}
	}
}

// NewFilterService exposes the dataset-manipulation filters over SOAP,
// completing §4.3's "data set manipulation tools" family:
//
//	getFilters()                        -> filter names
//	apply(dataset, filter, options)     -> transformed ARFF
//	filterBatch(payload, filter, ...)   -> transformed dmb1 block
//
// Filter options: Discretize takes bins and equalFrequency; Remove/Keep
// take a comma-separated attributes list.
func NewFilterService() *Service {
	return register(serviceDesc{
		Name:     "Filter",
		Version:  "1.1",
		Category: "data-manipulation",
		Doc:      "Dataset filters (discretize, normalise, standardise, missing-value replacement, attribute removal), textual and dmb1-batch.",
		Ops: []op{
			{
				Name: "getFilters",
				Doc:  "List the dataset filters available.",
				Out:  []string{partFilters},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					return map[string]string{"filters": strings.Join(filterNames, "\n")}, nil
				},
			},
			{
				Name: "apply",
				Doc: "Apply a dataset filter and return the transformed ARFF. " +
					"Deprecated for bulk pipelines: the ARFF round-trip re-parses " +
					"text at every hop — chain filterBatch payloads instead.",
				In:  []string{PartDataset, PartFilter, PartBins, PartEqualFrequency, PartAttributes},
				Out: []string{partArff},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					d, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					f, err := filterFromParts(parts)
					if err != nil {
						return nil, err
					}
					out, err := f.Apply(d)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					return map[string]string{"arff": arff.Format(out)}, nil
				},
			},
			{
				Name: "filterBatch",
				Doc: "Apply a dataset filter to a dmb1 payload over the columnar " +
					"fast path and return the transformed block — schema changes " +
					"(Discretize, Remove, Keep) included, so chained filters never " +
					"materialise ARFF text.",
				In:  []string{PartPayload, PartEncoding, PartFilter, PartBins, PartEqualFrequency, PartAttributes},
				Out: []string{PartPayload, PartRows, PartEncoding},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					d, err := decodeBatchPayload(parts, "filterBatch")
					if err != nil {
						return nil, err
					}
					f, err := filterFromParts(parts)
					if err != nil {
						return nil, err
					}
					out, err := f.Apply(d)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					res, err := wire.MarshalBase64(out)
					return blockReply(res, err, out.NumInstances())
				},
			},
		},
	})
}
