package workflow

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// SOAPUnit invokes one operation of a remote Web Service — the coloured
// service tools that appear in the workspace after a WSDL import (§4). Its
// input nodes are the operation's input parts and its output nodes the
// response parts.
//
// With RegistryURL set the unit resolves its endpoints dynamically: every
// live registry entry whose name matches Service (and Category, if set)
// joins a health-aware pool, and a failing call moves to the next healthy
// endpoint — the paper's "complete the task if a fault occurs by moving
// the job to another resource" (§3). The pool's Policy is the task's only
// retry: the engine runs each unit once. A unit with a fixed Endpoint and
// no registry makes one call.
type SOAPUnit struct {
	Endpoint  string
	Service   string
	Operation string
	In, Out   []string
	// Client overrides the package-level default SOAP client when set.
	Client *soap.Client
	// RegistryURL, when set, backs the unit with a registry-refreshed
	// endpoint pool; Endpoint (if also set) seeds the pool.
	RegistryURL string
	// Category optionally narrows the registry inquiry.
	Category string
	// Policy governs retries across pool endpoints; nil uses the
	// resilience defaults when a pool is active.
	Policy *resilience.Policy
	// Hedge, when set, enables tail-latency hedging while a registry pool
	// is active: an attempt that outlives the hedge delay races a backup
	// attempt on a different healthy endpoint, first success wins, loser
	// cancelled. A zero Delay derives the delay from the pool's latency
	// EWMA. Setting it asserts the operation is idempotent — both
	// attempts may execute to completion on different replicas.
	Hedge *resilience.HedgePolicy

	poolOnce sync.Once
	pool     *resilience.Pool
}

// Name implements Unit.
func (u *SOAPUnit) Name() string { return u.Service + "." + u.Operation }

// Inputs implements Unit.
func (u *SOAPUnit) Inputs() []string { return u.In }

// Outputs implements Unit.
func (u *SOAPUnit) Outputs() []string { return u.Out }

// ensurePool lazily builds the registry-backed endpoint pool; it returns
// nil when the unit has no RegistryURL (fixed-endpoint mode).
func (u *SOAPUnit) ensurePool() *resilience.Pool {
	u.poolOnce.Do(func() {
		if u.RegistryURL == "" {
			return
		}
		rc := &registry.Client{BaseURL: u.RegistryURL, Policy: &resilience.Policy{}}
		var seed []string
		if u.Endpoint != "" {
			seed = []string{u.Endpoint}
		}
		u.pool = resilience.NewPool(seed,
			resilience.WithSource(rc.EndpointSource(u.Service, u.Category)))
	})
	return u.pool
}

// Run implements Unit: only declared input parts are forwarded; inputs left
// unset are simply omitted. The call is context-first, so cancellation and
// the caller's trace context propagate into the SOAP request.
func (u *SOAPUnit) Run(ctx context.Context, in Values) (Values, error) {
	parts := map[string]string{}
	for _, name := range u.In {
		if v, ok := in[name]; ok {
			parts[name] = v
		}
	}
	call := func(ctx context.Context, endpoint string) (map[string]string, error) {
		if u.Client != nil {
			return u.Client.CallContext(ctx, endpoint, u.Operation, parts)
		}
		return soap.CallContext(ctx, endpoint, u.Operation, parts)
	}
	if pool := u.ensurePool(); pool != nil {
		var mu sync.Mutex
		var out map[string]string
		attempt := func(ctx context.Context, endpoint string) error {
			CountAttempt(ctx)
			res, callErr := call(ctx, endpoint)
			if callErr == nil {
				mu.Lock()
				out = res
				mu.Unlock()
			}
			return callErr
		}
		if _, err := pool.Do(ctx, u.Policy, u.Hedge, attempt); err != nil {
			return nil, err
		}
		return Values(out), nil
	}
	out, err := call(ctx, u.Endpoint)
	if err != nil {
		return nil, err
	}
	return Values(out), nil
}

// Spec implements Specced.
func (u *SOAPUnit) Spec() Spec {
	cfg := map[string]string{
		"endpoint":  u.Endpoint,
		"service":   u.Service,
		"operation": u.Operation,
	}
	if u.RegistryURL != "" {
		cfg["registry"] = u.RegistryURL
	}
	if u.Category != "" {
		cfg["category"] = u.Category
	}
	if u.Hedge != nil {
		cfg["hedge"] = "true"
		if u.Hedge.Delay > 0 {
			cfg["hedgeDelay"] = u.Hedge.Delay.String()
		}
	}
	for i, p := range u.In {
		cfg[fmt.Sprintf("in.%d", i)] = p
	}
	for i, p := range u.Out {
		cfg[fmt.Sprintf("out.%d", i)] = p
	}
	return Spec{Kind: "soap", Config: cfg}
}

func init() {
	registerUnitKind("soap", func(cfg map[string]string) (Unit, error) {
		u := &SOAPUnit{
			Endpoint:    cfg["endpoint"],
			Service:     cfg["service"],
			Operation:   cfg["operation"],
			RegistryURL: cfg["registry"],
			Category:    cfg["category"],
		}
		if cfg["hedge"] == "true" {
			u.Hedge = &resilience.HedgePolicy{}
		}
		if v := cfg["hedgeDelay"]; v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("workflow: soap unit hedgeDelay %q: %w", v, err)
			}
			if u.Hedge != nil {
				u.Hedge.Delay = d
			}
		}
		for i := 0; ; i++ {
			p, ok := cfg[fmt.Sprintf("in.%d", i)]
			if !ok {
				break
			}
			u.In = append(u.In, p)
		}
		for i := 0; ; i++ {
			p, ok := cfg[fmt.Sprintf("out.%d", i)]
			if !ok {
				break
			}
			u.Out = append(u.Out, p)
		}
		if u.Operation == "" || (u.Endpoint == "" && u.RegistryURL == "") {
			return nil, fmt.Errorf("workflow: soap unit needs an operation and an endpoint or registry")
		}
		return u, nil
	})
}

// FetchWSDL fetches the WSDL document at url and parses it into a
// description, documentation and part types included.
func FetchWSDL(url string) (*wsdl.Description, error) {
	client := &http.Client{Timeout: 15 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("workflow: fetching WSDL %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("workflow: fetching WSDL %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("workflow: reading WSDL: %w", err)
	}
	return wsdl.ParseBytes(body)
}

// UnitsFromDescription creates one SOAPUnit per operation of a parsed WSDL
// description, reproducing Triana's import flow: "a Web Service is
// imported to the workspace by providing its WSDL interface. Once the
// interface is provided Triana creates a tool for each operation provided
// by the service" (§4).
func UnitsFromDescription(desc *wsdl.Description) []*SOAPUnit {
	units := make([]*SOAPUnit, 0, len(desc.Ops))
	for _, op := range desc.Ops {
		u := &SOAPUnit{Endpoint: desc.Endpoint, Service: desc.Service, Operation: op.Name}
		for _, p := range op.Inputs {
			u.In = append(u.In, p.Name)
		}
		for _, p := range op.Outputs {
			u.Out = append(u.Out, p.Name)
		}
		units = append(units, u)
	}
	return units
}
