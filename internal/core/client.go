package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arff"
	"repro/internal/dataset"
	"repro/internal/services"
	"repro/internal/soap"
	"repro/internal/wire"
)

// Client is the typed Go API over a deployment's SOAP services. Where
// the raw soap.Client exchanges map[string]string part maps — still
// available via Raw() as the low-level escape hatch for operations this
// facade does not cover — Client methods take and return Go values:
// datasets go out as ARFF or dmb1 binary batches, results come back as
// structs. One Client targets one base URL (a dmserver or anything
// hosting the same services); callers running their own endpoint pools
// pin individual calls to a replica with At.
type Client struct {
	base   string
	pinned string // set by At: the endpoint every call goes to
	soap   *soap.Client
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithSOAPClient substitutes the underlying SOAP client (custom
// timeouts, resilience policy, breakers, observer).
func WithSOAPClient(sc *soap.Client) ClientOption {
	return func(c *Client) { c.soap = sc }
}

// NewClient returns a typed client for the deployment at baseURL (e.g.
// "http://host:8080").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), soap: soap.NewClient()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Raw exposes the underlying part-map SOAP client — the documented
// low-level escape hatch for operations without a typed wrapper.
func (c *Client) Raw() *soap.Client { return c.soap }

// At returns a client whose calls all go to endpoint — a service URL
// from a registry or endpoint pool — instead of being routed by service
// name under the base URL: client.At(ep).Train(ctx, opts). The receiver
// is not modified and the copy shares its SOAP client (connection pool,
// resilience policy, breakers), so At is cheap enough to call per
// request and safe from concurrent goroutines.
func (c *Client) At(endpoint string) *Client {
	pinned := *c
	pinned.pinned = endpoint
	return &pinned
}

// Endpoint returns the URL of a named service on this deployment, or
// the pinned endpoint for a client made by At.
func (c *Client) Endpoint(service string) string {
	if c.pinned != "" {
		return c.pinned
	}
	return c.base + "/services/" + service
}

// call invokes op at url and normalises transport errors.
func (c *Client) call(ctx context.Context, url, op string, parts map[string]string) (map[string]string, error) {
	out, err := c.soap.CallContext(ctx, url, op, parts)
	if err != nil {
		return nil, fmt.Errorf("dm: %s: %w", op, err)
	}
	return out, nil
}

// Classifiers lists the classification algorithms the deployment offers.
func (c *Client) Classifiers(ctx context.Context) ([]string, error) {
	out, err := c.call(ctx, c.Endpoint("Classifier"), "getClassifiers", nil)
	if err != nil {
		return nil, err
	}
	return strings.Fields(out[services.PartClassifiers]), nil
}

// TrainOptions names the inputs of every training-shaped call: the
// dataset, the algorithm, its options, and the class attribute (blank
// means the dataset's designated class).
type TrainOptions struct {
	Dataset    *dataset.Dataset
	Classifier string
	Options    map[string]string
	Class      string
	// DatasetARFF, when non-empty, is sent instead of formatting Dataset
	// — for callers that format once and reuse the text across many calls
	// (the experiment engine's remote executor). Dataset may be nil then,
	// in which case Class must be set explicitly.
	DatasetARFF string
}

// parts renders the options as SOAP parts.
func (o TrainOptions) parts() (map[string]string, error) {
	if o.Dataset == nil && o.DatasetARFF == "" {
		return nil, fmt.Errorf("dm: TrainOptions.Dataset is nil")
	}
	if o.Classifier == "" {
		return nil, fmt.Errorf("dm: TrainOptions.Classifier is empty")
	}
	class := o.Class
	if class == "" && o.Dataset != nil {
		if ca := o.Dataset.ClassAttribute(); ca != nil {
			class = ca.Name
		}
	}
	text := o.DatasetARFF
	if text == "" {
		text = arff.Format(o.Dataset)
	}
	parts := map[string]string{
		services.PartDataset:    text,
		services.PartClassifier: o.Classifier,
		services.PartAttribute:  class,
	}
	if err := optionsPart(parts, o.Options); err != nil {
		return nil, err
	}
	return parts, nil
}

// TrainResult is a classifyInstance reply: the textual model and its
// resubstitution evaluation.
type TrainResult struct {
	Model      string
	Evaluation string
	Accuracy   float64
}

// Train trains o.Classifier on o.Dataset via the deployment's
// Classifier service and returns the model text plus evaluation.
func (c *Client) Train(ctx context.Context, o TrainOptions) (*TrainResult, error) {
	parts, err := o.parts()
	if err != nil {
		return nil, err
	}
	out, err := c.call(ctx, c.Endpoint("Classifier"), "classifyInstance", parts)
	if err != nil {
		return nil, err
	}
	acc, err := strconv.ParseFloat(out[services.PartAccuracy], 64)
	if err != nil {
		return nil, fmt.Errorf("dm: classifyInstance returned no accuracy: %w", err)
	}
	return &TrainResult{
		Model:      out[services.PartModel],
		Evaluation: out[services.PartEvaluation],
		Accuracy:   acc,
	}, nil
}

// CreateSession trains once and mints a replica-portable session token
// for interactive use.
func (c *Client) CreateSession(ctx context.Context, o TrainOptions) (string, error) {
	parts, err := o.parts()
	if err != nil {
		return "", err
	}
	out, err := c.call(ctx, c.Endpoint("Session"), "createSession", parts)
	if err != nil {
		return "", err
	}
	token := strings.TrimSpace(out[services.PartSession])
	if token == "" {
		return "", fmt.Errorf("dm: createSession returned no session token")
	}
	return token, nil
}

// CloseSession releases the session on the replica behind this client.
func (c *Client) CloseSession(ctx context.Context, token string) error {
	_, err := c.call(ctx, c.Endpoint("Session"), "closeSession",
		map[string]string{services.PartSession: token})
	return err
}

// Classify labels instances with the session's model over the XML row
// path: one ARFF document in, newline-separated label names out. For
// high-throughput scoring use ClassifyBatch. Session tokens are
// replica-portable, so under At the endpoint may be any replica sharing
// the model store — not just the one that trained.
func (c *Client) Classify(ctx context.Context, token string, d *dataset.Dataset) ([]string, error) {
	out, err := c.call(ctx, c.Endpoint("Session"), "classify", map[string]string{
		services.PartSession:   token,
		services.PartInstances: arff.Format(d),
	})
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(out[services.PartLabels]) == "" {
		return nil, nil
	}
	return strings.Split(strings.TrimSpace(out[services.PartLabels]), "\n"), nil
}

// Label is one row's batched scoring outcome.
type Label struct {
	Index        int       // class-label index
	Name         string    // class-label name
	Distribution []float64 // per-class probabilities, class-index order
}

// ClassifyBatch scores the view's rows with the session's model over
// the dmb1 binary fast path: the selection is shipped as one columnar
// block, the server restores the model once and scores all rows in a
// single invocation, and the DMR1 reply carries every label plus its
// per-class distribution.
func (c *Client) ClassifyBatch(ctx context.Context, token string, v *dataset.View) ([]Label, error) {
	parts := map[string]string{services.PartSession: token}
	n, err := viewPart(parts, v)
	if err != nil {
		return nil, err
	}
	out, err := c.call(ctx, c.Endpoint("Session"), "classifyBatch", parts)
	if err != nil {
		return nil, err
	}
	return decodeLabels(out, n)
}

// viewPart adds a view's selection to parts as the batch payload and
// returns how many rows it holds.
func viewPart(parts map[string]string, v *dataset.View) (int, error) {
	if v == nil {
		return 0, fmt.Errorf("dm: batch call needs a non-nil view")
	}
	d := v.Materialize()
	return d.NumInstances(), batchPart(parts, d)
}

// batchPart adds d to parts as the batch payload: one base64 dmb1 block
// plus the encoding part that selects the codec.
func batchPart(parts map[string]string, d *dataset.Dataset) error {
	payload, err := wire.MarshalBase64(d)
	if err != nil {
		return fmt.Errorf("dm: encoding batch: %w", err)
	}
	parts[services.PartPayload] = payload
	parts[services.PartEncoding] = wire.Encoding
	return nil
}

// decodeLabels parses a classifyBatch reply into per-row labels.
func decodeLabels(out map[string]string, wantRows int) ([]Label, error) {
	res, err := wire.UnmarshalResultBase64(out[services.PartPayload])
	if err != nil {
		return nil, fmt.Errorf("dm: decoding batch result: %w", err)
	}
	if len(res.Labels) != wantRows {
		return nil, fmt.Errorf("dm: batch result has %d rows, sent %d", len(res.Labels), wantRows)
	}
	// Every row's distribution is carved from one rows x k slab, capped
	// at its k cells so an append to one row cannot spill into the next.
	k := len(res.Classes)
	slab := make([]float64, len(res.Labels)*k)
	labels := make([]Label, len(res.Labels))
	for i, l := range res.Labels {
		dist := slab[i*k : (i+1)*k : (i+1)*k]
		for cl, col := range res.Distributions {
			dist[cl] = col[i]
		}
		labels[i] = Label{Index: l, Name: res.Classes[l], Distribution: dist}
	}
	return labels, nil
}
