// Package registry implements a UDDI-style service registry with publish
// and inquiry interfaces over HTTP, standing in for the jUDDI registry the
// paper exposes at agents-comsc.grid.cf.ac.uk:8334/juddi/inquiry (§4.6).
//
// Entries are keyed by (name, endpoint), so several hosts can publish the
// same service under one name — the paper's replicated-deployment model —
// and an inquiry returns every live endpoint for failover. Liveness comes
// from heartbeats: publishing stamps LastSeen, and a registry constructed
// with NewWithTTL hides (Inquire) and eventually deletes (Sweep) entries
// whose publisher has stopped re-publishing.
package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

var regLog = obs.L("registry")

// Entry is one published service at one endpoint.
type Entry struct {
	Name        string    `json:"name"`
	Category    string    `json:"category"` // e.g. "classifier", "visualisation"
	WSDLURL     string    `json:"wsdlUrl"`
	Endpoint    string    `json:"endpoint"`
	Description string    `json:"description,omitempty"`
	Published   time.Time `json:"published"`
	// LastSeen is the server-side timestamp of the latest (re-)publish;
	// it drives TTL aging and is stamped by the registry, not the client.
	LastSeen time.Time `json:"lastSeen,omitempty"`
}

// key identifies an entry: one row per (name, endpoint) pair.
func key(name, endpoint string) string { return name + "\x00" + endpoint }

// Registry is the in-memory store behind the HTTP interfaces; it is safe
// for concurrent use.
type Registry struct {
	ttl time.Duration
	now func() time.Time

	mu      sync.RWMutex
	entries map[string]Entry
}

// New returns an empty registry without entry aging.
func New() *Registry {
	return &Registry{entries: map[string]Entry{}, now: time.Now}
}

// NewWithTTL returns a registry that treats entries as dead once their
// publisher has not re-published for ttl: Inquire and Get skip them, and
// Sweep deletes them. ttl <= 0 disables aging.
func NewWithTTL(ttl time.Duration) *Registry {
	r := New()
	r.ttl = ttl
	return r
}

// live reports whether an entry is within its TTL.
func (r *Registry) live(e Entry, now time.Time) bool {
	return r.ttl <= 0 || now.Sub(e.LastSeen) <= r.ttl
}

// Publish adds or refreshes a service entry; re-publishing the same
// (name, endpoint) is the heartbeat that keeps it alive under a TTL.
func (r *Registry) Publish(e Entry) error {
	if e.Name == "" {
		return fmt.Errorf("registry: entry has no name")
	}
	now := r.now().UTC()
	e.LastSeen = now
	if e.Published.IsZero() {
		e.Published = now
	}
	r.mu.Lock()
	if prev, ok := r.entries[key(e.Name, e.Endpoint)]; ok {
		e.Published = prev.Published // first-publish time survives heartbeats
	}
	r.entries[key(e.Name, e.Endpoint)] = e
	n := len(r.entries)
	r.mu.Unlock()
	obs.Default.Counter("registry_publish_total").Inc()
	obs.Default.Gauge("registry_entries").Set(int64(n))
	regLog.Info(nil, "publish", "name", e.Name, "category", e.Category, "endpoint", e.Endpoint)
	return nil
}

// Remove deletes every endpoint published under a name.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	for k, e := range r.entries {
		if e.Name == name {
			delete(r.entries, k)
		}
	}
	n := len(r.entries)
	r.mu.Unlock()
	obs.Default.Gauge("registry_entries").Set(int64(n))
}

// RemoveEndpoint deletes one (name, endpoint) entry, leaving the name's
// other endpoints published.
func (r *Registry) RemoveEndpoint(name, endpoint string) {
	r.mu.Lock()
	delete(r.entries, key(name, endpoint))
	n := len(r.entries)
	r.mu.Unlock()
	obs.Default.Gauge("registry_entries").Set(int64(n))
}

// Sweep deletes expired entries and returns how many it removed. Callers
// with a TTL should run it periodically (core.Deploy's heartbeat does).
func (r *Registry) Sweep() int {
	if r.ttl <= 0 {
		return 0
	}
	now := r.now().UTC()
	r.mu.Lock()
	removed := 0
	for k, e := range r.entries {
		if !r.live(e, now) {
			delete(r.entries, k)
			removed++
			regLog.Warn(nil, "expired", "name", e.Name, "endpoint", e.Endpoint)
		}
	}
	n := len(r.entries)
	r.mu.Unlock()
	if removed > 0 {
		obs.Default.Counter("registry_expired_total").Add(int64(removed))
		obs.Default.Gauge("registry_entries").Set(int64(n))
	}
	return removed
}

// Inquire returns live entries matching the name substring and/or exact
// category; empty filters match everything. Results are sorted by name,
// then endpoint, so replicated services list deterministically.
func (r *Registry) Inquire(nameContains, category string) []Entry {
	obs.Default.Counter("registry_inquiries_total").Inc()
	now := r.now().UTC()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Entry
	for _, e := range r.entries {
		if !r.live(e, now) {
			continue
		}
		if nameContains != "" && !strings.Contains(strings.ToLower(e.Name), strings.ToLower(nameContains)) {
			continue
		}
		if category != "" && e.Category != category {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Endpoint < out[j].Endpoint
	})
	return out
}

// Get returns the live entry with the exact name; when several endpoints
// publish the name, the most recently seen wins.
func (r *Registry) Get(name string) (Entry, bool) {
	now := r.now().UTC()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var best Entry
	found := false
	for _, e := range r.entries {
		if e.Name != name || !r.live(e, now) {
			continue
		}
		if !found || e.LastSeen.After(best.LastSeen) {
			best, found = e, true
		}
	}
	return best, found
}

// Handler returns the HTTP interface:
//
//	GET  /inquiry?name=...&category=...  -> JSON list of live entries
//	POST /publish  (JSON Entry body)     -> 204
//	POST /remove?name=...[&endpoint=...] -> 204
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/inquiry", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		out := r.Inquire(q.Get("name"), q.Get("category"))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/publish", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var e Entry
		if err := json.NewDecoder(req.Body).Decode(&e); err != nil {
			http.Error(w, "malformed entry: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := r.Publish(e); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/remove", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		name := req.URL.Query().Get("name")
		if name == "" {
			http.Error(w, "missing name", http.StatusBadRequest)
			return
		}
		if ep := req.URL.Query().Get("endpoint"); ep != "" {
			r.RemoveEndpoint(name, ep)
		} else {
			r.Remove(name)
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// statusError is a non-2xx registry response. It exposes FaultCode so
// resilience.Classify treats 5xx as retryable and 4xx as permanent,
// mirroring the SOAP fault convention.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string {
	if e.msg == "" {
		return fmt.Sprintf("registry: HTTP %d", e.status)
	}
	return fmt.Sprintf("registry: HTTP %d: %s", e.status, e.msg)
}

func (e *statusError) FaultCode() string {
	if e.status >= 400 && e.status < 500 {
		return "soap:Client"
	}
	return "soap:Server"
}

// Client talks to a remote registry over its HTTP interface.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	// Policy retries retryable failures (network errors, 5xx) with
	// backoff (see resilience.Policy.Do); nil means a single attempt.
	Policy *resilience.Policy
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// withRetry runs fn once, or under the client's retry policy when set.
func (c *Client) withRetry(ctx context.Context, op string, fn func(context.Context) error) error {
	if c.Policy == nil {
		return fn(ctx)
	}
	return c.Policy.Do(ctx, fn, func(attempt int, err error, _ time.Duration) {
		obs.Default.Counter("registry_client_retries_total", "op="+op).Inc()
		regLog.Info(ctx, "retry", "op", op, "attempt", fmt.Sprint(attempt), "err", err)
	})
}

// PublishContext posts an entry to the remote registry, retrying under
// the client's policy. Deployments heartbeat by calling it periodically.
func (c *Client) PublishContext(ctx context.Context, e Entry) error {
	body, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return c.withRetry(ctx, "publish", func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/publish", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
			return &statusError{status: resp.StatusCode, msg: strings.TrimSpace(string(msg))}
		}
		return nil
	})
}

// InquireContext queries the remote registry, retrying under the
// client's policy.
func (c *Client) InquireContext(ctx context.Context, nameContains, category string) ([]Entry, error) {
	q := url.Values{}
	q.Set("name", nameContains)
	q.Set("category", category)
	var out []Entry
	err := c.withRetry(ctx, "inquire", func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/inquiry?"+q.Encode(), nil)
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return &statusError{status: resp.StatusCode}
		}
		out = nil
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Inquire queries the remote registry.
func (c *Client) Inquire(nameContains, category string) ([]Entry, error) {
	return c.InquireContext(context.Background(), nameContains, category)
}

// RemoveContext withdraws one (name, endpoint) entry — or every endpoint
// under the name when endpoint is empty — retrying under the policy.
func (c *Client) RemoveContext(ctx context.Context, name, endpoint string) error {
	q := url.Values{}
	q.Set("name", name)
	if endpoint != "" {
		q.Set("endpoint", endpoint)
	}
	return c.withRetry(ctx, "remove", func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/remove?"+q.Encode(), nil)
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return &statusError{status: resp.StatusCode}
		}
		return nil
	})
}

// EndpointSource adapts an inquiry into a resilience.SourceFunc: each
// call returns the live endpoints currently publishing the name/category,
// giving an EndpointPool the paper's UDDI-driven failover.
func (c *Client) EndpointSource(nameContains, category string) resilience.SourceFunc {
	return func(ctx context.Context) ([]string, error) {
		entries, err := c.InquireContext(ctx, nameContains, category)
		if err != nil {
			return nil, err
		}
		var eps []string
		for _, e := range entries {
			if e.Endpoint != "" {
				eps = append(eps, e.Endpoint)
			}
		}
		return eps, nil
	}
}
