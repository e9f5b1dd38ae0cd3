// Package chaos is the toolkit's fault-injection layer: HTTP middleware
// that deliberately breaks SOAP services so the resilience substrate
// (internal/resilience) can be proven rather than trusted. The paper
// claims fault-tolerant composition — "complete the task if a fault
// occurs by moving the job to another resource" (§3) — but offers no way
// to make a deployed service fail on demand; this package closes that
// gap. Faults are injected deterministically (seeded PRNG) by rule:
// added latency, soap:Server fault envelopes, dropped connections and
// truncated responses, each with a per-operation probability. Rules come
// from dmserver's -chaos flag or, per request, from the X-DM-Chaos
// header, so tests and scripts/smoke.sh can force a failure on exactly
// the call they are watching. The header is honored only for loopback
// peers unless explicitly opted in (dmserver -chaos-header), so a
// production deployment cannot have faults injected by remote callers.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/soap"
)

// headerName is the per-request override header: its value is a single
// rule in the -chaos syntax (e.g. "fault=1" or "latency=200ms") applied
// to that request only, regardless of configured rules.
const headerName = "X-DM-Chaos"

// Rule is one fault-injection rule. Rates are probabilities in [0, 1];
// a rate >= 1 always fires. Checks run in the order latency → drop →
// fault → truncate, so a rule can both delay and then break a call.
type Rule struct {
	// Op restricts the rule to one SOAP operation (matched against the
	// request's SOAPAction); empty or "*" matches every request.
	Op string
	// Latency is added before any other injection.
	Latency time.Duration
	// FaultRate is the probability of answering with a soap:Server
	// fault envelope instead of invoking the service.
	FaultRate float64
	// DropRate is the probability of aborting the connection without a
	// response (the client sees a transport error).
	DropRate float64
	// TruncateRate is the probability of sending only the first half of
	// the real response (the client sees a malformed envelope).
	TruncateRate float64
}

// parseRule parses the "key=value,key=value" rule syntax: op=<name>,
// latency=<duration>, fault=<rate>, drop=<rate>, truncate=<rate>.
func parseRule(s string) (Rule, error) {
	var r Rule
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		eq := strings.IndexByte(field, '=')
		if eq < 0 {
			return Rule{}, fmt.Errorf("chaos: malformed field %q (want key=value)", field)
		}
		key, val := strings.TrimSpace(field[:eq]), strings.TrimSpace(field[eq+1:])
		switch key {
		case "op":
			r.Op = val
		case "latency":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Rule{}, fmt.Errorf("chaos: latency %q: %w", val, err)
			}
			r.Latency = d
		case "fault", "drop", "truncate":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil || rate < 0 {
				return Rule{}, fmt.Errorf("chaos: %s rate %q: want a number in [0,1]", key, val)
			}
			switch key {
			case "fault":
				r.FaultRate = rate
			case "drop":
				r.DropRate = rate
			case "truncate":
				r.TruncateRate = rate
			}
		default:
			return Rule{}, fmt.Errorf("chaos: unknown field %q", key)
		}
	}
	return r, nil
}

// ParseRules parses a semicolon-separated rule list (the -chaos flag
// value). The first rule matching a request's operation applies.
func ParseRules(s string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(s, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

var chaosLog = obs.L("chaos")

// Injector applies rules to requests passing through Wrap. The nil
// *Injector injects nothing, so wiring can be unconditional.
type Injector struct {
	// Observer receives injection counters; nil means obs.Default.
	Observer *obs.Registry
	// AllowHeaderFromAnyPeer honors the X-DM-Chaos header regardless of
	// the peer address. Off (the default) the header is honored only for
	// requests from loopback peers, so a production deployment cannot
	// have faults injected by arbitrary remote callers; configured -chaos
	// rules are unaffected. Set before serving traffic.
	AllowHeaderFromAnyPeer bool

	rules []Rule

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns an injector with a deterministic dice sequence: the same
// seed and request order reproduce the same injections.
func New(seed int64, rules ...Rule) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{rules: rules, rng: rand.New(rand.NewSource(seed))}
}

func (inj *Injector) obsReg() *obs.Registry {
	if inj.Observer != nil {
		return inj.Observer
	}
	return obs.Default
}

// roll reports whether an injection with probability rate fires. Rates
// at or above 1 always fire without consuming randomness, so a "100%
// faults" rule stays deterministic regardless of request ordering.
func (inj *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.rng.Float64() < rate
}

// headerAllowed reports whether the request's peer may drive injection
// through the X-DM-Chaos header: loopback peers always may (tests and
// local smoke scripts), remote peers only with the explicit opt-in.
func (inj *Injector) headerAllowed(r *http.Request) bool {
	if inj.AllowHeaderFromAnyPeer {
		return true
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// ruleFor picks the rule applying to a request: the X-DM-Chaos header
// (parsed as a single rule, loopback peers only unless opted in) wins;
// otherwise the first configured rule whose Op matches the request's
// SOAPAction.
func (inj *Injector) ruleFor(r *http.Request) (Rule, bool) {
	if h := r.Header.Get(headerName); h != "" {
		if !inj.headerAllowed(r) {
			inj.obsReg().Counter("chaos_header_denied_total").Inc()
			chaosLog.Warn(r.Context(), "header_denied", "peer", r.RemoteAddr)
		} else if rule, err := parseRule(h); err == nil {
			return rule, true
		} else {
			chaosLog.Warn(r.Context(), "bad_header", "value", h, "err", err)
		}
	}
	op := operationOf(r)
	for _, rule := range inj.rules {
		if rule.Op == "" || rule.Op == "*" || rule.Op == op {
			return rule, true
		}
	}
	return Rule{}, false
}

// operationOf extracts the SOAP operation from the SOAPAction header.
func operationOf(r *http.Request) string {
	return strings.Trim(r.Header.Get("SOAPAction"), `"`)
}

func (inj *Injector) count(kind, op string) {
	if op == "" {
		op = "unknown"
	}
	inj.obsReg().Counter("chaos_injections_total", "kind="+kind, "op="+op).Inc()
}

// Wrap returns next with fault injection in front of it.
func (inj *Injector) Wrap(next http.Handler) http.Handler {
	if inj == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rule, ok := inj.ruleFor(r)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		op := operationOf(r)
		if rule.Latency > 0 {
			inj.count("latency", op)
			select {
			case <-time.After(rule.Latency):
			case <-r.Context().Done():
				return
			}
		}
		if inj.roll(rule.DropRate) {
			inj.count("drop", op)
			chaosLog.Info(r.Context(), "inject", "kind", "drop", "op", op)
			// Abort the response without writing anything: the client
			// observes a closed connection (a retryable transport error).
			panic(http.ErrAbortHandler)
		}
		if inj.roll(rule.FaultRate) {
			inj.count("fault", op)
			chaosLog.Info(r.Context(), "inject", "kind", "fault", "op", op)
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write(soap.MarshalFault(&soap.Fault{
				Code:   "soap:Server",
				String: "chaos: injected fault",
				Detail: "op=" + op,
			}))
			return
		}
		if inj.roll(rule.TruncateRate) {
			inj.count("truncate", op)
			chaosLog.Info(r.Context(), "inject", "kind", "truncate", "op", op)
			rec := &recorder{header: http.Header{}, code: http.StatusOK}
			next.ServeHTTP(rec, r)
			for k, vs := range rec.header {
				if k == "Content-Length" {
					continue
				}
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.code)
			body := rec.buf.Bytes()
			_, _ = w.Write(body[:len(body)/2])
			return
		}
		next.ServeHTTP(w, r)
	})
}

// recorder buffers a response so Wrap can truncate it.
type recorder struct {
	header http.Header
	buf    bytes.Buffer
	code   int
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(p []byte) (int, error) { return r.buf.Write(p) }
func (r *recorder) WriteHeader(code int)        { r.code = code }
