// Package soap implements the SOAP 1.1 messaging substrate of the toolkit.
// The paper deploys its services with Apache Axis over Tomcat and drives
// them through "pre-defined SOAP messages" (§4.5); this package provides
// the same wire model on net/http: document-style envelopes whose body
// element names the operation and whose children carry named string parts.
//
// Envelopes are written by an append-only writer (this file) and read by
// a single-pass byte scanner (scan.go); encoding/xml is not on the call
// path. The scanner accepts the XML a SOAP 1.1 message is allowed to be
// and rejects what the specification forbids — see unmarshalBytes.
package soap

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// envelopeNS is the SOAP 1.1 envelope namespace.
const envelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"

// traceNS is the namespace of the TraceContext header block carrying the
// toolkit's trace propagation (see internal/obs).
const traceNS = "urn:faehim:trace"

// Message is an operation invocation or reply: the operation name plus
// named string parts. Binary parts (e.g. PNG images) travel base64-encoded.
// Trace, when non-empty, is the obs trace context ("traceID-spanID")
// carried in a <TraceContext> SOAP header block.
type Message struct {
	Operation string
	Parts     map[string]string
	Trace     string
}

// Fault is a SOAP fault, also used as the Go error for failed calls. The
// struct tags name the wire elements; only the encoding/xml test oracle
// reads them.
type Fault struct {
	Code   string `xml:"faultcode"`
	String string `xml:"faultstring"`
	Detail string `xml:"detail,omitempty"`
	// Retry is the server's Retry-After hint for shed (ServerBusy)
	// requests. It travels in HTTP response headers, not the envelope;
	// the client attaches it here so retry policies can honor it.
	Retry time.Duration `xml:"-"`
}

// FaultCode exposes the fault class for metric labelling (obs.FaultClass).
func (f *Fault) FaultCode() string { return f.Code }

// RetryAfterHint exposes the server's backoff hint (zero = none) through
// the interface resilience.RetryAfter recognises.
func (f *Fault) RetryAfterHint() time.Duration { return f.Retry }

// Error implements error.
func (f *Fault) Error() string {
	if f.Detail != "" {
		return fmt.Sprintf("soap fault %s: %s (%s)", f.Code, f.String, f.Detail)
	}
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

const (
	xmlDecl      = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"
	envelopeOpen = xmlDecl + `<soap:Envelope xmlns:soap="` + envelopeNS + `">`
	traceOpen    = `<soap:Header><TraceContext xmlns="` + traceNS + `">`
	traceClose   = `</TraceContext></soap:Header>`
	bodyClose    = `</soap:Body></soap:Envelope>`
	faultOpen    = envelopeOpen + `<soap:Body><soap:Fault>`
	faultClose   = `</soap:Fault>` + bodyClose
)

// Marshal renders a message as a SOAP 1.1 envelope. Parts are emitted in
// sorted order for deterministic wire bytes.
func Marshal(m Message) ([]byte, error) {
	return appendEnvelope(make([]byte, 0, envelopeSizeHint(m)), m)
}

// envelopeSizeHint is the envelope's exact size when no part value needs
// escaping (a base64 block never does); escapes grow the buffer by append.
func envelopeSizeHint(m Message) int {
	n := len(envelopeOpen) + len(`<soap:Body>`) + 2*len(m.Operation) + len(`<></>`) + len(bodyClose)
	if m.Trace != "" {
		n += len(traceOpen) + len(m.Trace) + len(traceClose)
	}
	for k, v := range m.Parts {
		n += 2*len(k) + len(`<></>`) + len(v)
	}
	return n
}

// appendEnvelope appends the envelope of m to dst, so callers can render
// into a buffer they own and reuse.
func appendEnvelope(dst []byte, m Message) ([]byte, error) {
	if m.Operation == "" {
		return nil, fmt.Errorf("soap: message has no operation")
	}
	dst = append(dst, envelopeOpen...)
	if m.Trace != "" {
		dst = append(dst, traceOpen...)
		dst = appendEscaped(dst, m.Trace)
		dst = append(dst, traceClose...)
	}
	dst = append(dst, `<soap:Body><`...)
	dst = append(dst, m.Operation...)
	dst = append(dst, '>')
	// Sorting the part names costs one small slice; the 8-name array keeps
	// that off the heap for every operation the toolkit defines.
	var few [8]string
	keys := few[:0]
	for k := range m.Parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !validName(k) {
			return nil, fmt.Errorf("soap: invalid part name %q", k)
		}
		dst = append(dst, '<')
		dst = append(dst, k...)
		dst = append(dst, '>')
		dst = appendEscaped(dst, m.Parts[k])
		dst = append(dst, '<', '/')
		dst = append(dst, k...)
		dst = append(dst, '>')
	}
	dst = append(dst, '<', '/')
	dst = append(dst, m.Operation...)
	dst = append(dst, '>')
	return append(dst, bodyClose...), nil
}

// MarshalFault renders a fault envelope.
func MarshalFault(f *Fault) []byte {
	n := len(faultOpen) + len(faultClose) + len(f.Code) + len(f.String) + len(f.Detail) +
		len(`<faultcode></faultcode><faultstring></faultstring><detail></detail>`)
	dst := append(make([]byte, 0, n), faultOpen...)
	dst = append(dst, `<faultcode>`...)
	dst = append(dst, f.Code...)
	dst = append(dst, `</faultcode><faultstring>`...)
	dst = appendEscaped(dst, f.String)
	dst = append(dst, `</faultstring>`...)
	if f.Detail != "" {
		dst = append(dst, `<detail>`...)
		dst = appendEscaped(dst, f.Detail)
		dst = append(dst, `</detail>`...)
	}
	return append(dst, faultClose...)
}

// Escape classes of a text byte. escPlain bytes are copied in runs; the
// named classes are replaced by their entry in escapes; escMulti bytes
// start (or break) a multi-byte UTF-8 sequence and are decoded.
const (
	escPlain = iota
	escQuot
	escApos
	escAmp
	escLT
	escGT
	escTab
	escNL
	escCR
	escBad // a control character XML cannot carry
	escMulti
)

// escapes holds the replacement text per class, exactly the strings
// encoding/xml's EscapeText emits, so envelope bytes do not depend on
// which of the two wrote them.
var escapes = [...]string{
	escQuot: "&#34;",
	escApos: "&#39;",
	escAmp:  "&amp;",
	escLT:   "&lt;",
	escGT:   "&gt;",
	escTab:  "&#x9;",
	escNL:   "&#xA;",
	escCR:   "&#xD;",
	escBad:  "\uFFFD",
}

var escClass = func() (t [256]uint8) {
	for b := 0; b < 0x20; b++ {
		t[b] = escBad
	}
	for b := 0x80; b < 0x100; b++ {
		t[b] = escMulti
	}
	t['"'], t['\''], t['&'], t['<'], t['>'] = escQuot, escApos, escAmp, escLT, escGT
	t['\t'], t['\n'], t['\r'] = escTab, escNL, escCR
	return t
}()

// appendEscaped appends s as XML character data: the five markup
// characters and tab, newline and carriage return as references, and
// anything XML cannot carry (other control characters, U+FFFE, U+FFFF,
// invalid UTF-8 one byte at a time) as U+FFFD. Stretches that need no
// escaping are copied with one append each.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		// Whole ordinary words first, then the word that stopped them a
		// byte at a time.
		i += ordinaryPrefix(s[i:])
		for end := min(i+8, len(s)); i < end; {
			c := escClass[s[i]]
			if c == escPlain {
				i++
				continue
			}
			width := 1
			if c == escMulti {
				var r rune
				r, width = utf8.DecodeRuneInString(s[i:])
				if !(r == utf8.RuneError && width == 1) && inCharacterRange(r) {
					i += width
					continue
				}
				c = escBad
			}
			dst = append(dst, s[last:i]...)
			dst = append(dst, escapes[c]...)
			i += width
			last = i
		}
	}
	return append(dst, s[last:]...)
}

// Unmarshal parses a SOAP envelope into a message. A fault body returns a
// *Fault error.
func Unmarshal(r io.Reader) (Message, error) {
	declared := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok { // bytes.Reader, strings.Reader, bytes.Buffer
		declared = int64(l.Len())
	}
	return readEnvelope(r, declared)
}

// readEnvelope reads one envelope whole, bounded at maxEnvelopeBytes,
// into a pooled buffer and parses it; the message's strings are copies,
// so the buffer is recycled on return.
func readEnvelope(r io.Reader, declared int64) (Message, error) {
	body, err := readBody(r, declared, maxEnvelopeBytes)
	if err != nil {
		return Message{}, fmt.Errorf("soap: malformed envelope: %w", err)
	}
	defer body.release()
	return unmarshalBytes(body.data)
}

// validName reports whether s is usable as an XML element name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		digit := r >= '0' && r <= '9'
		if i == 0 && !alpha {
			return false
		}
		if !alpha && !digit && r != '-' && r != '.' {
			return false
		}
	}
	return !strings.HasPrefix(strings.ToLower(s), "xml")
}
