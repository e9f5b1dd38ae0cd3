package services

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/arff"
	"repro/internal/csvconv"
	"repro/internal/dataset"
	"repro/internal/soap"
)

// NewDataConvertService builds the data-manipulation Web Service of §4.3 —
// the CSV↔ARFF converters ("particularly useful for using data sets
// obtained from commercial software such as MS-Excel"), the URL reader of
// the case study ("a Web Service to read the data file from a URL and
// convert this into a format suitable for analysis"), and the dataset
// summary of Figure 3:
//
//	csv2arff(csv, header, relation) -> arff
//	arff2csv(dataset)               -> csv
//	readURL(url, format)            -> arff
//	summarize(dataset)              -> the Figure-3 statistics block
func NewDataConvertService(fetch *http.Client) *Service {
	if fetch == nil {
		fetch = &http.Client{Timeout: 30 * time.Second}
	}
	return register(serviceDesc{
		Name:     "DataConvert",
		Version:  "1.1",
		Category: "data-manipulation",
		Doc:      "Data-manipulation tools of §4.3: CSV↔ARFF conversion, URL reading and dataset summaries.",
		Ops: []op{
			{
				Name: "csv2arff",
				Doc:  "Convert a CSV document to ARFF (types inferred).",
				In:   []string{partCSV, partHeader, partRelation},
				Out:  []string{partArff},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					text, err := require(parts, "csv")
					if err != nil {
						return nil, err
					}
					hasHeader := strings.TrimSpace(parts["header"]) != "false"
					d, err := csvconv.ParseString(text, csvconv.Options{
						HasHeader: hasHeader,
						Relation:  strings.TrimSpace(parts["relation"]),
					})
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					return map[string]string{"arff": arff.Format(d)}, nil
				},
			},
			{
				Name: "arff2csv",
				Doc:  "Convert an ARFF document to CSV.",
				In:   []string{PartDataset},
				Out:  []string{partCSV},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					d, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					return map[string]string{"csv": csvconv.Format(d)}, nil
				},
			},
			{
				Name: "readURL",
				Doc:  "Fetch a dataset from a URL and normalise it to ARFF.",
				In:   []string{partURL, partFormat},
				Out:  []string{partArff},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					url, err := require(parts, "url")
					if err != nil {
						return nil, err
					}
					req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: "bad url " + url, Detail: err.Error()}
					}
					resp, err := fetch.Do(req)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: "fetching " + url, Detail: err.Error()}
					}
					defer resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						return nil, &soap.Fault{Code: "soap:Server",
							String: fmt.Sprintf("fetching %s: %s", url, resp.Status)}
					}
					body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					text := string(body)
					format := strings.ToLower(strings.TrimSpace(parts["format"]))
					if format == "" {
						if strings.Contains(strings.ToLower(text), "@relation") {
							format = "arff"
						} else {
							format = "csv"
						}
					}
					var d *dataset.Dataset
					switch format {
					case "arff":
						d, err = arff.ParseString(text)
					case "csv":
						d, err = csvconv.ParseString(text, csvconv.Options{HasHeader: true})
					default:
						return nil, &soap.Fault{Code: "soap:Client",
							String: fmt.Sprintf("unknown format %q (want arff or csv)", format)}
					}
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: "parsing fetched data", Detail: err.Error()}
					}
					return map[string]string{"arff": arff.Format(d)}, nil
				},
			},
			{
				Name: "summarize",
				Doc:  "Compute dataset statistics (instances, attributes, missing values).",
				In:   []string{PartDataset},
				Out:  []string{partSummary, PartInstances, PartAttributes, partMissing},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					d, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					s := dataset.Summarize(d)
					return map[string]string{
						"summary":    s.Format(),
						"instances":  fmt.Sprintf("%d", s.NumInstances),
						"attributes": fmt.Sprintf("%d", s.NumAttributes),
						"missing":    fmt.Sprintf("%d", s.MissingCells),
					}, nil
				},
			},
		},
	})
}
