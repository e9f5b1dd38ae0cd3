// Package services implements the paper's data-mining Web Services (§4):
// the general Classifier service (getClassifiers / getOptions /
// classifyInstance), the dedicated J48 service (classify / classifyGraph),
// the Clusterer and Cobweb services (cluster / getCobwebGraph), association
// rules, attribute selection (including the genetic search of §5.3), the
// data-manipulation services (CSV↔ARFF conversion, URL reading, dataset
// summaries), and the plotting services standing in for GNUPlot and the
// Mathematica plot3D service (§4.2).
//
// Each constructor returns a Service: a SOAP endpoint plus its WSDL
// description, ready to be hosted by Host and imported into the workflow
// toolbox from its WSDL.
package services

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/algo"
	"repro/internal/arff"
	"repro/internal/dataset"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// Service bundles a deployable Web Service. Build one with Register.
type Service struct {
	Name     string
	Version  string
	Category string
	Doc      string
	Desc     *wsdl.Description
	Endpoint *soap.Endpoint
}

// Op declares one service operation exactly once: its interface metadata
// (names of the input and output parts, shared by the WSDL document and
// the obs metric labels) together with its handler.
type Op struct {
	Name    string
	Doc     string
	In, Out []string
	Handle  soap.Handler
}

// ServiceDesc carries everything needed to deploy, describe, publish and
// label a service: identity (name, version, category), a human description
// reused as the registry entry text, and the operation set.
type ServiceDesc struct {
	Name     string
	Version  string
	Category string
	Doc      string
	Ops      []Op
}

// Register materialises a ServiceDesc into a deployable Service: the SOAP
// endpoint gets one handler per operation and the WSDL description is
// derived from the same Op metadata, so the wire interface and its
// published description cannot drift apart. This replaces the per-service
// copy-pasted endpoint/WSDL wiring the constructors used to carry.
func Register(desc ServiceDesc) *Service {
	if desc.Name == "" {
		panic("services: ServiceDesc has no name")
	}
	if desc.Version == "" {
		desc.Version = "1.0"
	}
	ep := soap.NewEndpoint(desc.Name)
	wd := &wsdl.Description{Service: desc.Name}
	for _, op := range desc.Ops {
		if op.Handle == nil {
			panic("services: operation " + op.Name + " on " + desc.Name + " has no handler")
		}
		ep.Handle(op.Name, op.Handle)
		wop := wsdl.Operation{Name: op.Name, Doc: op.Doc}
		// Binary parts travel base64-encoded — "image" (plotPNG,
		// plot3D) and "payload" (dmb1/result batch blocks) — and the
		// WSDL types them base64Binary instead of string, on inputs
		// (filterBatch, clusterBatch, regressBatch take blocks in) as
		// well as outputs.
		for _, p := range op.In {
			typ := ""
			if binaryParts[p] {
				typ = "base64Binary"
			}
			wop.Inputs = append(wop.Inputs, wsdl.Part{Name: p, Type: typ})
		}
		for _, p := range op.Out {
			typ := ""
			if binaryParts[p] {
				typ = "base64Binary"
			}
			wop.Outputs = append(wop.Outputs, wsdl.Part{Name: p, Type: typ})
		}
		wd.Ops = append(wd.Ops, wop)
	}
	return &Service{
		Name:     desc.Name,
		Version:  desc.Version,
		Category: desc.Category,
		Doc:      desc.Doc,
		Desc:     wd,
		Endpoint: ep,
	}
}

// Description returns the registry-facing description text: the declared
// Doc, falling back to a generic line.
func (s *Service) Description() string {
	if s.Doc != "" {
		return s.Doc
	}
	return "FAEHIM data mining service"
}

// Host mounts services on a mux under /services/<name>, serving SOAP on
// POST and the WSDL document on GET (the "?wsdl" convention). It returns
// the path of each service.
func Host(mux *http.ServeMux, baseURL string, svcs ...*Service) map[string]string {
	paths := map[string]string{}
	for _, s := range svcs {
		svc := s
		path := "/services/" + svc.Name
		svc.Desc.Endpoint = baseURL + path
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				doc, err := wsdl.Generate(svc.Desc)
				if err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				w.Header().Set("Content-Type", "text/xml; charset=utf-8")
				_, _ = w.Write(doc)
				return
			}
			svc.Endpoint.ServeHTTP(w, r)
		})
		paths[svc.Name] = path
	}
	return paths
}

// parseDataset decodes the mandatory ARFF dataset part of a request.
func parseDataset(parts map[string]string, part string) (*dataset.Dataset, error) {
	text, ok := parts[part]
	if !ok || strings.TrimSpace(text) == "" {
		return nil, &soap.Fault{Code: "soap:Client", String: fmt.Sprintf("missing %s part (ARFF document expected)", part)}
	}
	d, err := arff.ParseString(text)
	if err != nil {
		return nil, &soap.Fault{Code: "soap:Client", String: "malformed ARFF dataset", Detail: err.Error()}
	}
	return d, nil
}

// parseOptions decodes the options part: either JSON object of name->value
// or "name=value,name=value" shorthand. An empty part is an empty map.
func parseOptions(parts map[string]string, part string) (map[string]string, error) {
	raw := strings.TrimSpace(parts[part])
	if raw == "" {
		return map[string]string{}, nil
	}
	if strings.HasPrefix(raw, "{") {
		var m map[string]string
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			return nil, &soap.Fault{Code: "soap:Client", String: "malformed options JSON", Detail: err.Error()}
		}
		return m, nil
	}
	m := map[string]string{}
	for _, pair := range strings.Split(raw, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			return nil, &soap.Fault{Code: "soap:Client",
				String: fmt.Sprintf("malformed option %q (want name=value)", pair)}
		}
		m[strings.TrimSpace(pair[:eq])] = strings.TrimSpace(pair[eq+1:])
	}
	return m, nil
}

// listOp is a general service's catalogue op (§4.1): the registry's
// sorted names, one a line, in the out part.
func listOp[T algo.Named](name, doc, out string, reg *algo.Registry[T]) Op {
	return Op{
		Name: name,
		Doc:  doc,
		Out:  []string{out},
		Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
			return map[string]string{out: strings.Join(reg.Names(), "\n")}, nil
		},
	}
}

// optionsOp is a general service's getOptions op: the JSON option
// descriptors of the algorithm named in the in part.
func optionsOp[T algo.Named](doc, in string, reg *algo.Registry[T]) Op {
	return Op{
		Name: "getOptions",
		Doc:  doc,
		In:   []string{in},
		Out:  []string{PartOptions},
		Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
			name, err := require(parts, in)
			if err != nil {
				return nil, err
			}
			opts, err := reg.Options(name)
			if err != nil {
				return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
			}
			js, err := optionsJSON(opts)
			if err != nil {
				return nil, err
			}
			return map[string]string{PartOptions: js}, nil
		},
	}
}

// buildFromParts constructs the algorithm named in the namePart part and
// configures it from the options part. An unknown name or a bad option is
// the caller's mistake, so it faults soap:Client.
func buildFromParts[T algo.Named](reg *algo.Registry[T], parts map[string]string, namePart string) (T, string, error) {
	var zero T
	name, err := require(parts, namePart)
	if err != nil {
		return zero, "", err
	}
	opts, err := parseOptions(parts, PartOptions)
	if err != nil {
		return zero, "", err
	}
	m, err := reg.Build(name, opts)
	if err != nil {
		return zero, "", &soap.Fault{Code: "soap:Client", String: err.Error()}
	}
	return m, name, nil
}

// require fetches a mandatory part.
func require(parts map[string]string, name string) (string, error) {
	v, ok := parts[name]
	if !ok || strings.TrimSpace(v) == "" {
		return "", &soap.Fault{Code: "soap:Client", String: "missing " + name + " part"}
	}
	return v, nil
}

// optional fetches a part that may be absent, returning its trimmed
// value or "".
func optional(parts map[string]string, name string) string {
	return strings.TrimSpace(parts[name])
}

// optionsJSON renders option descriptors as the JSON getOptions reply.
func optionsJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("services: %w", err)
	}
	return string(b), nil
}

// intPart decodes an optional integer part, falling back to def when the
// part is absent or blank.
func intPart(parts map[string]string, name string, def int) (int, error) {
	raw := strings.TrimSpace(parts[name])
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, &soap.Fault{Code: "soap:Client",
			String: fmt.Sprintf("malformed %s part %q (integer expected)", name, raw)}
	}
	return n, nil
}
