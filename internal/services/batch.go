package services

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/wire"
)

// decodeBatchPayload resolves the payload/encoding parts of a
// classifyBatch request: the payload is a base64-wrapped dmb1 block
// (the only supported encoding), and any framing problem — bad base64,
// truncation, corrupt header, invalid nominal index — is the caller's
// fault, reported soap:Client. On success it records the batch obs
// metrics: batch_rows_total counts decoded rows, batch_decode_ms times
// the wire decode.
func decodeBatchPayload(parts map[string]string, op string) (*dataset.Dataset, error) {
	if enc := optional(parts, PartEncoding); enc != "" && enc != wire.Encoding {
		return nil, &soap.Fault{Code: "soap:Client",
			String: fmt.Sprintf("unsupported encoding %q (only %q)", enc, wire.Encoding)}
	}
	payload, err := require(parts, PartPayload)
	if err != nil {
		return nil, err
	}
	began := time.Now()
	d, err := wire.UnmarshalBase64(strings.TrimSpace(payload))
	if err != nil {
		return nil, &soap.Fault{Code: "soap:Client",
			String: "malformed dmb1 payload", Detail: err.Error()}
	}
	obs.Default.Histogram("batch_decode_ms", "op="+op).
		Observe(float64(time.Since(began).Microseconds()) / 1e3)
	obs.Default.Counter("batch_rows_total", "op="+op).Add(int64(d.NumInstances()))
	return d, nil
}

// scoreBatch runs the columnar scoring path over a decoded batch and
// renders the DMR1 response parts: the base64 result block plus row
// count and encoding echoes.
func scoreBatch(c classify.Classifier, d *dataset.Dataset) (map[string]string, error) {
	ca := d.ClassAttribute()
	if ca == nil || !ca.IsNominal() {
		return nil, &soap.Fault{Code: "soap:Client",
			String: "batch payload designates no nominal class attribute to label against"}
	}
	labels, dists, err := classify.PredictBatch(c, d)
	if err != nil {
		return nil, asFault(err)
	}
	classes := ca.Values()
	// Transpose row-major distributions into DMR1's per-class columns.
	cols := make([][]float64, len(classes))
	for cl := range cols {
		cols[cl] = make([]float64, len(labels))
	}
	for i, dist := range dists {
		if len(dist) != len(classes) {
			return nil, &soap.Fault{Code: "soap:Server",
				String: fmt.Sprintf("row %d: %d-class distribution against %d labels", i, len(dist), len(classes))}
		}
		for cl, p := range dist {
			cols[cl][i] = p
		}
	}
	res, err := wire.MarshalResultBase64(&wire.Result{
		Classes:       classes,
		Labels:        labels,
		Distributions: cols,
	})
	return blockReply(res, err, len(labels))
}

// blockReply renders the reply every block-returning batch op shares —
// the base64 block, its row count and the encoding — from the outcome of
// encoding the block; an encoding failure is the server's fault.
func blockReply(payload string, err error, rows int) (map[string]string, error) {
	if err != nil {
		return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
	}
	return map[string]string{
		PartPayload:  payload,
		PartRows:     strconv.Itoa(rows),
		PartEncoding: wire.Encoding,
	}, nil
}

// asFault maps an error into a SOAP fault, preserving an existing
// fault's code, reporting a block narrower than the model's schema as
// soap:Client and defaulting to soap:Server.
func asFault(err error) *soap.Fault {
	var f *soap.Fault
	if errors.As(err, &f) {
		return f
	}
	if errors.Is(err, dataset.ErrWidth) {
		return &soap.Fault{Code: "soap:Client", String: err.Error()}
	}
	return &soap.Fault{Code: "soap:Server", String: err.Error()}
}
