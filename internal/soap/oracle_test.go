package soap

// The encoding/xml implementation of the envelope codec as it stood before
// the single-pass scanner and the append-only writer replaced it, moved
// here verbatim (only the function names changed). It is the reference the
// differential and fuzz tests hold the production code to: same Message,
// same *Fault, same bytes.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// oracleMarshal renders a message as a SOAP 1.1 envelope. Parts are emitted in
// sorted order for deterministic wire bytes.
func oracleMarshal(m Message) ([]byte, error) {
	if m.Operation == "" {
		return nil, fmt.Errorf("soap: message has no operation")
	}
	var b bytes.Buffer
	b.WriteString(xml.Header)
	fmt.Fprintf(&b, `<soap:Envelope xmlns:soap=%q>`, envelopeNS)
	if m.Trace != "" {
		fmt.Fprintf(&b, `<soap:Header><TraceContext xmlns=%q>`, traceNS)
		if err := xml.EscapeText(&b, []byte(m.Trace)); err != nil {
			return nil, fmt.Errorf("soap: %w", err)
		}
		b.WriteString(`</TraceContext></soap:Header>`)
	}
	b.WriteString(`<soap:Body>`)
	fmt.Fprintf(&b, "<%s>", m.Operation)
	keys := make([]string, 0, len(m.Parts))
	for k := range m.Parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !validName(k) {
			return nil, fmt.Errorf("soap: invalid part name %q", k)
		}
		fmt.Fprintf(&b, "<%s>", k)
		if err := xml.EscapeText(&b, []byte(m.Parts[k])); err != nil {
			return nil, fmt.Errorf("soap: %w", err)
		}
		fmt.Fprintf(&b, "</%s>", k)
	}
	fmt.Fprintf(&b, "</%s>", m.Operation)
	b.WriteString(`</soap:Body></soap:Envelope>`)
	return b.Bytes(), nil
}

// oracleMarshalFault renders a fault envelope.
func oracleMarshalFault(f *Fault) []byte {
	var b bytes.Buffer
	b.WriteString(xml.Header)
	fmt.Fprintf(&b, `<soap:Envelope xmlns:soap=%q><soap:Body><soap:Fault>`, envelopeNS)
	fmt.Fprintf(&b, "<faultcode>%s</faultcode>", f.Code)
	b.WriteString("<faultstring>")
	_ = xml.EscapeText(&b, []byte(f.String))
	b.WriteString("</faultstring>")
	if f.Detail != "" {
		b.WriteString("<detail>")
		_ = xml.EscapeText(&b, []byte(f.Detail))
		b.WriteString("</detail>")
	}
	b.WriteString(`</soap:Fault></soap:Body></soap:Envelope>`)
	return b.Bytes()
}

// oracleUnmarshal parses a SOAP envelope into a message. A fault body returns a
// *Fault error.
func oracleUnmarshal(r io.Reader) (Message, error) {
	dec := xml.NewDecoder(r)
	msg := Message{Parts: map[string]string{}}
	// States: looking for Envelope -> (Header) -> Body -> operation element.
	depth := 0
	inBody := false
	inHeader := false
	var opName string
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return msg, fmt.Errorf("soap: malformed envelope: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			switch {
			case depth == 1:
				if t.Name.Local != "Envelope" {
					return msg, fmt.Errorf("soap: root element %q is not Envelope", t.Name.Local)
				}
			case depth == 2 && t.Name.Local == "Header":
				inHeader = true
			case depth == 2 && t.Name.Local == "Body":
				inBody = true
			case depth == 3 && inHeader:
				if t.Name.Local == "TraceContext" {
					var v string
					if err := dec.DecodeElement(&v, &t); err != nil {
						return msg, fmt.Errorf("soap: malformed trace header: %w", err)
					}
					msg.Trace = strings.TrimSpace(v)
				} else if err := dec.Skip(); err != nil { // tolerate unknown header blocks
					return msg, fmt.Errorf("soap: malformed header: %w", err)
				}
				depth-- // the block's end element was consumed
			case depth == 3 && inBody:
				if t.Name.Local == "Fault" {
					var f Fault
					if err := dec.DecodeElement(&f, &t); err != nil {
						return msg, fmt.Errorf("soap: malformed fault: %w", err)
					}
					return msg, &f
				}
				opName = t.Name.Local
				msg.Operation = opName
				if err := oracleDecodeParts(dec, &msg); err != nil {
					return msg, err
				}
				depth-- // oracleDecodeParts consumed the end element
			}
		case xml.EndElement:
			depth--
			if depth == 1 && t.Name.Local == "Header" {
				inHeader = false
			}
		}
	}
	if msg.Operation == "" {
		return msg, fmt.Errorf("soap: envelope has no operation element")
	}
	return msg, nil
}

// oracleDecodeParts reads <name>value</name> children until the operation's end
// element.
func oracleDecodeParts(dec *xml.Decoder, msg *Message) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("soap: malformed body: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var value string
			if err := dec.DecodeElement(&value, &t); err != nil {
				return fmt.Errorf("soap: malformed part %q: %w", t.Name.Local, err)
			}
			msg.Parts[t.Name.Local] = value
		case xml.EndElement:
			return nil
		}
	}
}
