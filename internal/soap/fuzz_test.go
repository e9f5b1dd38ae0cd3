package soap

import (
	"bytes"
	"encoding/xml"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// FuzzUnmarshal holds the scanner to the encoding/xml oracle on arbitrary
// bytes; the committed corpus under testdata/fuzz/FuzzUnmarshal is one
// envelope per construct the scanner documents.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstOracle(t, data) })
}

// FuzzEscape holds the writer to xml.EscapeText byte for byte, alone and
// through every place an envelope escapes text.
func FuzzEscape(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, []byte(s)); err != nil {
			t.Fatal(err)
		}
		if got := appendEscaped(nil, s); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendEscaped(%q) = %q, xml.EscapeText gives %q", s, got, want.Bytes())
		}
		msg := Message{Operation: "op", Trace: s, Parts: map[string]string{"a": s, "b": "plain"}}
		got, err := Marshal(msg)
		wantEnv, wantErr := oracleMarshal(msg)
		if err != nil || wantErr != nil || !bytes.Equal(got, wantEnv) {
			t.Fatalf("Marshal(%q) = %q, %v; oracle gives %q, %v", s, got, err, wantEnv, wantErr)
		}
		fault := &Fault{Code: "soap:Server", String: s, Detail: s}
		if got, want := MarshalFault(fault), oracleMarshalFault(fault); !bytes.Equal(got, want) {
			t.Fatalf("MarshalFault(%q) = %q, oracle gives %q", s, got, want)
		}
	})
}

// checkAgainstOracle is the differential property: whatever the scanner
// accepts the oracle accepts, with a deep-equal Message or *Fault, and
// whatever the oracle accepts the scanner accepts too unless the input
// uses a construct the scanner documents as rejected. No returned string
// is longer than the input, so a bounded body bounds what parsing holds.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := unmarshalBytes(data)
	want, wantErr := oracleUnmarshal(bytes.NewReader(data))
	gotFault, gotIsFault := gotErr.(*Fault)
	wantFault, wantIsFault := wantErr.(*Fault)
	switch {
	case gotErr == nil:
		if wantErr != nil {
			t.Fatalf("scanner accepts %q as %+v, oracle rejects it: %v", data, got, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner reads %q as %+v, oracle as %+v", data, got, want)
		}
	case gotIsFault:
		if !wantIsFault {
			t.Fatalf("scanner reads %q as fault %+v, oracle gives %+v, %v", data, gotFault, want, wantErr)
		}
		if !reflect.DeepEqual(gotFault, wantFault) {
			t.Fatalf("scanner reads %q as fault %+v, oracle as %+v", data, gotFault, wantFault)
		}
	default:
		if !reflect.DeepEqual(got, Message{}) {
			t.Fatalf("scanner rejects %q (%v) yet returns %+v", data, gotErr, got)
		}
		if (wantErr == nil || wantIsFault) && !usesRejectedConstruct(data) {
			t.Fatalf("scanner rejects %q (%v), oracle reads it as %+v, %v, and it uses no documented rejected construct",
				data, gotErr, want, wantErr)
		}
	}
	held := len(got.Operation) + len(got.Trace)
	for k, v := range got.Parts {
		held += len(k) + len(v)
	}
	if gotIsFault {
		held += len(gotFault.Code) + len(gotFault.String) + len(gotFault.Detail)
	}
	if held > len(data) {
		t.Fatalf("scanner returns %d bytes of strings from %d bytes of input %q", held, len(data), data)
	}
}

// xmlDeclRE is the XMLDecl production of XML 1.0 as the scanner reads it,
// less the <?xml and ?> around it; the encoding name is submatch 2.
var xmlDeclRE = regexp.MustCompile(`^version[ \t\r\n]*=[ \t\r\n]*("1\.0"|'1\.0')` +
	`(?:[ \t\r\n]+encoding[ \t\r\n]*=[ \t\r\n]*("[^"]*"|'[^']*'))?` +
	`(?:[ \t\r\n]+standalone[ \t\r\n]*=[ \t\r\n]*(?:"yes"|"no"|'yes'|'no'))?[ \t\r\n]*$`)

// usesRejectedConstruct reports, from encoding/xml's own tokens, whether
// data holds something unmarshalBytes documents as rejected: a directive
// (DOCTYPE and the like), a processing instruction, an XML declaration
// that is misplaced, malformed or names an encoding other than UTF-8, or
// a non-ASCII element or attribute name.
func usesRejectedConstruct(data []byte) bool {
	nonASCII := func(n xml.Name) bool {
		return strings.IndexFunc(n.Space+n.Local, func(r rune) bool { return r >= 0x80 }) >= 0
	}
	declAt := int64(0)
	if bytes.HasPrefix(data, []byte("\xEF\xBB\xBF")) {
		declAt = 3
	}
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		at := dec.InputOffset()
		tok, err := dec.RawToken()
		if err != nil {
			return false
		}
		switch tok := tok.(type) {
		case xml.Directive:
			return true
		case xml.ProcInst:
			m := xmlDeclRE.FindSubmatch(tok.Inst)
			wellFormedDecl := tok.Target == "xml" && at == declAt && m != nil &&
				len(data) > int(at)+5 && isSpace(data[at+5])
			if !wellFormedDecl {
				return true
			}
			if enc := m[2]; enc != nil && !bytes.EqualFold(enc[1:len(enc)-1], []byte("utf-8")) {
				return true
			}
		case xml.StartElement:
			if nonASCII(tok.Name) {
				return true
			}
			for _, a := range tok.Attr {
				if nonASCII(a.Name) {
					return true
				}
			}
		case xml.EndElement:
			if nonASCII(tok.Name) {
				return true
			}
		}
	}
}

// TestOrdinaryPrefix places every byte value at every offset of three
// words: the word-at-a-time scan never passes a byte either table scan
// gives a meaning to, and passes every byte of the base64 alphabet.
func TestOrdinaryPrefix(t *testing.T) {
	const base64Alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
	for b := 0; b < 256; b++ {
		for at := 0; at < 24; at++ {
			s := []byte(strings.Repeat("A", 24))
			s[at] = byte(b)
			n := ordinaryPrefix(s)
			if n != ordinaryPrefix(string(s)) || n%8 != 0 || n > len(s) {
				t.Fatalf("byte %#x at %d: prefix %d of bytes, %d of string", b, at, n, ordinaryPrefix(string(s)))
			}
			special := escClass[b] != escPlain || !plainByte[b]
			if special && n > at {
				t.Fatalf("byte %#x at %d: prefix %d runs past it", b, at, n)
			}
			if strings.IndexByte(base64Alphabet, byte(b)) >= 0 && n != len(s) {
				t.Fatalf("base64 byte %q at %d stops the scan at %d", b, at, n)
			}
		}
	}
}
