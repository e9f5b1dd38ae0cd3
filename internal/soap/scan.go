package soap

import (
	"bytes"
	"fmt"
	"strings"
	"unicode/utf8"
)

// unmarshalBytes parses one whole envelope held in buf. It is the only
// parse path: a single pass over the bytes that jumps from tag to tag
// with bytes.IndexByte and turns a part value that needs no decoding (no
// reference, no carriage return, no CDATA — every base64 block) into its
// string with exactly one copy. Nothing it returns aliases buf.
//
// Accepted is the XML a SOAP 1.1 message is allowed to be: an optional
// UTF-8 byte order mark and XML declaration, comments, namespace-prefixed
// names (matched by local part), attributes (checked, then ignored),
// self-closing elements, the five predefined entities, decimal and hex
// character references, CDATA sections, \r\n and \r normalised to \n,
// and elements nested inside a part (skipped; a part's value is its own
// character data). Rejected is what SOAP 1.1 forbids — a document type
// declaration (or any other <! directive) and processing instructions —
// plus a declared encoding other than UTF-8, a malformed XML declaration
// and non-ASCII element or attribute names, which no SOAP toolkit emits.
// Everything else that is not well-formed (mismatched or unclosed tags,
// unknown entities, characters outside the XML range, invalid UTF-8,
// "]]>" in text) is an error wherever in the document it appears.
//
// The envelope structure is read leniently, as it always was: the root's
// local name must be Envelope; a TraceContext header block is kept
// (trimmed) and other header blocks are skipped; the body's child names
// the operation and its children are the parts, the last of a repeated
// name winning; a Fault body child is returned as a *Fault error.
func unmarshalBytes(buf []byte) (Message, error) {
	var few [8]span // backs the open-element stack for envelopes of ordinary depth
	s := scanner{buf: buf, open: few[:0]}
	if err := s.prolog(); err != nil {
		return Message{}, err
	}
	msg := Message{Parts: map[string]string{}}
	depth := 0
	inHeader, inBody := false, false
	for {
		kind, name, err := s.next()
		if err != nil {
			return Message{}, err
		}
		switch kind {
		case tokEOF:
			if msg.Operation == "" {
				return Message{}, fmt.Errorf("soap: envelope has no operation element")
			}
			return msg, nil
		case tokStart:
			depth++
			local := localName(name)
			switch {
			case depth == 1:
				if string(local) != "Envelope" {
					return Message{}, fmt.Errorf("soap: root element %q is not Envelope", local)
				}
			case depth == 2 && string(local) == "Header":
				inHeader = true
			case depth == 2 && string(local) == "Body":
				inBody = true
			case depth == 3 && inHeader:
				if string(local) == "TraceContext" {
					v, err := s.value()
					if err != nil {
						return Message{}, err
					}
					msg.Trace = strings.TrimSpace(v)
				} else if err := s.skip(); err != nil { // tolerate unknown header blocks
					return Message{}, err
				}
				depth-- // the block's end tag was consumed
			case depth == 3 && inBody:
				if string(local) == "Fault" {
					f, err := s.fault()
					if err != nil {
						return Message{}, err
					}
					return Message{}, f
				}
				msg.Operation = string(local)
				if err := s.parts(msg.Parts); err != nil {
					return Message{}, err
				}
				depth-- // parts consumed the operation's end tag
			}
		case tokEnd:
			depth--
			if depth == 1 && string(localName(name)) == "Header" {
				inHeader = false
			}
		}
	}
}

// Token kinds next returns.
const (
	tokEOF = iota
	tokStart
	tokEnd
)

// scanner walks one envelope. Its position only moves forward.
type scanner struct {
	buf []byte
	pos int
	// open holds the raw names (prefix included) of the elements open at
	// pos, outermost first, as offsets into buf: deep nesting then costs
	// less memory than the tags that open it.
	open []span
	// selfClosed is set when the start tag just returned was <name/>:
	// its end tag is owed and is not in the input.
	selfClosed bool
}

// span is buf[start:end]. An envelope is at most maxEnvelopeBytes long,
// which an int32 holds.
type span struct{ start, end int32 }

// top returns the name of the innermost open element.
func (s *scanner) top() []byte {
	sp := s.open[len(s.open)-1]
	return s.buf[sp.start:sp.end]
}

// errf reports malformed input at the current position.
func (s *scanner) errf(format string, args ...any) error {
	return fmt.Errorf("soap: malformed envelope: %s at byte %d", fmt.Sprintf(format, args...), s.pos)
}

// prolog consumes an optional UTF-8 byte order mark and XML declaration.
// A declaration is only recognised here, at the very start; anywhere else
// it is a processing instruction, which next rejects.
func (s *scanner) prolog() error {
	if bytes.HasPrefix(s.buf, []byte("\xEF\xBB\xBF")) {
		s.pos = 3
	}
	rest := s.buf[s.pos:]
	if len(rest) < 6 || string(rest[:5]) != "<?xml" || !isSpace(rest[5]) {
		return nil
	}
	end := bytes.Index(rest, []byte("?>"))
	if end < 0 {
		return s.errf("unterminated XML declaration")
	}
	decl := rest[5:end]
	version, decl, ok := pseudoAttr(decl, "version")
	if !ok || string(version) != "1.0" {
		return s.errf("XML declaration does not say version 1.0")
	}
	if encoding, after, ok := pseudoAttr(decl, "encoding"); ok {
		if !bytes.EqualFold(encoding, []byte("utf-8")) {
			return s.errf("unsupported encoding %q: only UTF-8 is read", encoding)
		}
		decl = after
	}
	if standalone, after, ok := pseudoAttr(decl, "standalone"); ok {
		if v := string(standalone); v != "yes" && v != "no" {
			return s.errf("bad standalone value in XML declaration")
		}
		decl = after
	}
	if len(bytes.TrimLeft(decl, xmlSpace)) != 0 {
		return s.errf("malformed XML declaration")
	}
	s.pos += end + 2
	return nil
}

// pseudoAttr parses `S name S? = S? quoted` off the front of an XML
// declaration's body and returns the quoted value and what follows it.
func pseudoAttr(decl []byte, name string) (value, rest []byte, ok bool) {
	p := bytes.TrimLeft(decl, xmlSpace)
	if len(p) == len(decl) || !bytes.HasPrefix(p, []byte(name)) {
		return nil, decl, false
	}
	p = bytes.TrimLeft(p[len(name):], xmlSpace)
	if len(p) == 0 || p[0] != '=' {
		return nil, decl, false
	}
	p = bytes.TrimLeft(p[1:], xmlSpace)
	if len(p) == 0 || (p[0] != '"' && p[0] != '\'') {
		return nil, decl, false
	}
	end := bytes.IndexByte(p[1:], p[0])
	if end < 0 {
		return nil, decl, false
	}
	return p[1 : 1+end], p[2+end:], true
}

// next returns the next start or end tag. Character data, CDATA sections
// and comments on the way are checked for well-formedness and dropped:
// outside a part the envelope has no use for them.
func (s *scanner) next() (kind int, name []byte, err error) {
	if s.selfClosed {
		s.selfClosed = false
		return tokEnd, s.pop(), nil
	}
	for {
		if s.pos == len(s.buf) {
			if len(s.open) > 0 {
				return 0, nil, s.errf("unexpected end of input inside <%s>", s.top())
			}
			return tokEOF, nil, nil
		}
		if s.buf[s.pos] != '<' {
			end := bytes.IndexByte(s.buf[s.pos:], '<')
			if end < 0 {
				end = len(s.buf) - s.pos
			}
			if err := s.text(nil, s.buf[s.pos:s.pos+end], inText); err != nil {
				return 0, nil, err
			}
			s.pos += end
			continue
		}
		switch markup := s.markupAt(s.pos); markup {
		case markStart:
			name, err = s.startTag()
			return tokStart, name, err
		case markEnd:
			name, err = s.endTag()
			return tokEnd, name, err
		default:
			if err := s.skipMarkup(markup, nil); err != nil {
				return 0, nil, err
			}
		}
	}
}

// Kinds of markup a '<' can open.
const (
	markStart = iota
	markEnd
	markComment
	markCDATA
	markForbidden // <? and every <! that is neither comment nor CDATA
)

// markupAt classifies the markup at offset at, which holds a '<'.
func (s *scanner) markupAt(at int) int {
	rest := s.buf[at+1:]
	switch {
	case len(rest) == 0:
		return markStart // startTag reports the truncation
	case rest[0] == '/':
		return markEnd
	case rest[0] == '?':
		return markForbidden
	case rest[0] != '!':
		return markStart
	case bytes.HasPrefix(rest, []byte("!--")):
		return markComment
	case bytes.HasPrefix(rest, []byte("![CDATA[")):
		return markCDATA
	}
	return markForbidden
}

// skipMarkup consumes the comment or CDATA section at pos; a CDATA
// section's text goes to dst when that is set.
func (s *scanner) skipMarkup(markup int, dst *strings.Builder) error {
	switch markup {
	case markComment:
		body := s.buf[s.pos+len("<!--"):]
		end := bytes.Index(body, []byte("--"))
		if end < 0 {
			return s.errf("unterminated comment")
		}
		if end+2 >= len(body) || body[end+2] != '>' {
			return s.errf(`"--" inside a comment`)
		}
		s.pos += len("<!--") + end + len("-->")
		return nil
	case markCDATA:
		body := s.buf[s.pos+len("<![CDATA["):]
		end := bytes.Index(body, []byte("]]>"))
		if end < 0 {
			return s.errf("unterminated CDATA section")
		}
		if err := s.text(dst, body[:end], inCDATA); err != nil {
			return err
		}
		s.pos += len("<![CDATA[") + end + len("]]>")
		return nil
	}
	if s.buf[s.pos+1] == '?' {
		return s.errf("processing instructions are not allowed in a SOAP message")
	}
	return s.errf("a document type declaration or other <! directive is not allowed in a SOAP message")
}

// xmlSpace is the white space XML allows inside markup.
const xmlSpace = " \t\r\n"

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// nameByte classes: 1 may start a name, 2 may only continue one.
var nameByte = func() (t [256]uint8) {
	for b := 'a'; b <= 'z'; b++ {
		t[b], t[b-'a'+'A'] = 1, 1
	}
	t['_'], t[':'] = 1, 1
	for b := '0'; b <= '9'; b++ {
		t[b] = 2
	}
	t['-'], t['.'] = 2, 2
	return t
}()

// name reads the element or attribute name at pos: ASCII letters,
// digits, '_', '-', '.', and at most one ':'.
func (s *scanner) name() ([]byte, error) {
	start := s.pos
	if start == len(s.buf) || nameByte[s.buf[start]] != 1 {
		return nil, s.errf("expected a name")
	}
	colons := 0
	for s.pos < len(s.buf) && nameByte[s.buf[s.pos]] != 0 {
		if s.buf[s.pos] == ':' {
			colons++
		}
		s.pos++
	}
	if s.pos < len(s.buf) && s.buf[s.pos] >= utf8.RuneSelf {
		return nil, s.errf("non-ASCII names are not supported")
	}
	if colons > 1 {
		return nil, s.errf("name %q has more than one colon", s.buf[start:s.pos])
	}
	return s.buf[start:s.pos], nil
}

// localName strips a namespace prefix: the part after the colon, unless
// either side of it is empty.
func localName(name []byte) []byte {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[i+1:]
	}
	return name
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.buf) && isSpace(s.buf[s.pos]) {
		s.pos++
	}
}

// startTag consumes the start tag at pos, checking and dropping its
// attributes, and opens the element.
func (s *scanner) startTag() ([]byte, error) {
	s.pos++ // <
	name, err := s.name()
	if err != nil {
		return nil, err
	}
	sp := span{int32(s.pos - len(name)), int32(s.pos)}
	for {
		s.skipSpace()
		if s.pos == len(s.buf) {
			return nil, s.errf("unexpected end of input in <%s", name)
		}
		switch s.buf[s.pos] {
		case '>':
			s.pos++
			s.open = append(s.open, sp)
			return name, nil
		case '/':
			if s.pos+1 == len(s.buf) || s.buf[s.pos+1] != '>' {
				return nil, s.errf("expected /> in <%s", name)
			}
			s.pos += 2
			s.open = append(s.open, sp)
			s.selfClosed = true
			return name, nil
		}
		if _, err := s.name(); err != nil {
			return nil, err
		}
		s.skipSpace()
		if s.pos == len(s.buf) || s.buf[s.pos] != '=' {
			return nil, s.errf("attribute without a value in <%s", name)
		}
		s.pos++
		s.skipSpace()
		if s.pos == len(s.buf) || (s.buf[s.pos] != '"' && s.buf[s.pos] != '\'') {
			return nil, s.errf("unquoted attribute value in <%s", name)
		}
		quote := s.buf[s.pos]
		s.pos++
		end := bytes.IndexByte(s.buf[s.pos:], quote)
		if end < 0 {
			return nil, s.errf("unterminated attribute value in <%s", name)
		}
		if err := s.text(nil, s.buf[s.pos:s.pos+end], inAttr); err != nil {
			return nil, err
		}
		s.pos += end + 1
	}
}

// endTag consumes the end tag at pos and closes the element it names,
// which must be the innermost open one.
func (s *scanner) endTag() ([]byte, error) {
	s.pos += 2 // </
	name, err := s.name()
	if err != nil {
		return nil, err
	}
	s.skipSpace()
	if s.pos == len(s.buf) || s.buf[s.pos] != '>' {
		return nil, s.errf("expected > after </%s", name)
	}
	if len(s.open) == 0 {
		return nil, s.errf("unexpected </%s>", name)
	}
	if top := s.top(); !bytes.Equal(top, name) {
		return nil, s.errf("<%s> closed by </%s>", top, name)
	}
	s.pos++
	return s.pop(), nil
}

func (s *scanner) pop() []byte {
	name := s.top()
	s.open = s.open[:len(s.open)-1]
	return name
}

// skip consumes the rest of the element whose start tag next just
// returned, end tag included.
func (s *scanner) skip() error {
	for depth := len(s.open); ; {
		kind, _, err := s.next()
		if err != nil {
			return err
		}
		if kind == tokEnd && len(s.open) < depth {
			return nil
		}
	}
}

// value consumes the rest of the element whose start tag next just
// returned and returns its character data: text and CDATA sections
// concatenated, comments and child elements left out.
func (s *scanner) value() (string, error) {
	if s.selfClosed {
		s.selfClosed = false
		s.pop()
		return "", nil
	}
	var decoded *strings.Builder // allocated once the value needs more than one copy
	for {
		end := bytes.IndexByte(s.buf[s.pos:], '<')
		if end < 0 {
			s.pos = len(s.buf)
			return "", s.errf("unexpected end of input inside <%s>", s.top())
		}
		run := s.buf[s.pos : s.pos+end]
		markup := s.markupAt(s.pos + end)
		if decoded == nil {
			// The whole value is this run when the element's end tag
			// follows it and nothing in it needs decoding.
			if markup == markEnd && plainLen(run) == len(run) {
				s.pos += end
				if _, err := s.endTag(); err != nil {
					return "", err
				}
				return string(run), nil
			}
			decoded = new(strings.Builder)
			decoded.Grow(len(run))
		}
		if err := s.text(decoded, run, inText); err != nil {
			return "", err
		}
		s.pos += end
		switch markup {
		case markEnd:
			if _, err := s.endTag(); err != nil {
				return "", err
			}
			return decoded.String(), nil
		case markStart:
			if _, err := s.startTag(); err != nil {
				return "", err
			}
			if err := s.skip(); err != nil {
				return "", err
			}
		default:
			if err := s.skipMarkup(markup, decoded); err != nil {
				return "", err
			}
		}
	}
}

// parts consumes the operation element's children into parts, the last
// of a repeated name winning, through the operation's end tag.
func (s *scanner) parts(parts map[string]string) error {
	for {
		kind, name, err := s.next()
		if err != nil {
			return err
		}
		if kind != tokStart {
			return nil // tokEnd: the operation's own; next reports EOF inside it as an error
		}
		v, err := s.value()
		if err != nil {
			return err
		}
		parts[string(localName(name))] = v
	}
}

// fault consumes the Fault element next just opened and returns it.
func (s *scanner) fault() (*Fault, error) {
	f := &Fault{}
	for {
		kind, name, err := s.next()
		if err != nil {
			return nil, err
		}
		if kind != tokStart {
			return f, nil
		}
		var field *string
		switch string(localName(name)) {
		case "faultcode":
			field = &f.Code
		case "faultstring":
			field = &f.String
		case "detail":
			field = &f.Detail
		default:
			if err := s.skip(); err != nil {
				return nil, err
			}
			continue
		}
		if *field, err = s.value(); err != nil {
			return nil, err
		}
	}
}

// Where a stretch of character data sits decides what it may contain.
const (
	inText  = iota // element content: references decoded, "]]>" forbidden
	inCDATA        // CDATA section: '&' is literal
	inAttr         // attribute value: references decoded, '<' forbidden
)

// plainByte marks the bytes that stand for themselves in character data
// wherever they appear: printable ASCII, tab and newline, less '&', '<',
// ']' (which may open "]]>") and '\r' (which is normalised).
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < 0x80; b++ {
		t[b] = true
	}
	t['\t'], t['\n'] = true, true
	t['&'], t['<'], t[']'] = false, false, false
	return t
}()

// plainLen returns the length of the longest prefix of run made of
// plainByte bytes only.
func plainLen(run []byte) int {
	for i := 0; i < len(run); {
		// Whole ordinary words first, then the word that stopped them a
		// byte at a time.
		i += ordinaryPrefix(run[i:])
		for end := min(i+8, len(run)); i < end; i++ {
			if !plainByte[run[i]] {
				return i
			}
		}
	}
	return len(run)
}

// text checks one stretch of character data (one that holds no markup)
// and appends its decoded form to dst when dst is set: references
// resolved, \r\n and \r turned into \n. It reports what XML does not
// allow there: an unknown or malformed reference, "]]>" in element
// content, '<' in an attribute value, a character outside the XML range,
// invalid UTF-8.
func (s *scanner) text(dst *strings.Builder, run []byte, where int) error {
	for i := 0; i < len(run); {
		n := plainLen(run[i:])
		if dst != nil {
			dst.Write(run[i : i+n])
		}
		i += n
		if i == len(run) {
			break
		}
		b := run[i]
		r, width := rune(b), 1
		switch {
		case b == '&' && where != inCDATA:
			var ok bool
			if r, width, ok = reference(run[i:]); !ok {
				return s.errf("invalid character or entity reference")
			}
			if !inCharacterRange(r) {
				return s.errf("reference to illegal character %U", r)
			}
		case b == '\r':
			r = '\n'
			if i+1 < len(run) && run[i+1] == '\n' {
				width = 2
			}
		case b == ']' && where == inText && bytes.HasPrefix(run[i:], []byte("]]>")):
			return s.errf(`"]]>" in character data`)
		case b == '<' && where == inAttr:
			return s.errf("'<' in an attribute value")
		case b >= utf8.RuneSelf:
			r, width = utf8.DecodeRune(run[i:])
			if r == utf8.RuneError && width == 1 {
				return s.errf("invalid UTF-8")
			}
			if !inCharacterRange(r) {
				return s.errf("illegal character %U", r)
			}
		case b < 0x20:
			return s.errf("illegal character %U", r)
		}
		if dst != nil {
			dst.WriteRune(r)
		}
		i += width
	}
	return nil
}

// inCharacterRange reports whether r is a character XML 1.0 can carry.
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// entities are the five XML predefines; a SOAP message, which may carry
// no DTD, can declare no others.
var entities = [...]struct {
	name string
	r    rune
}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}}

// reference decodes the reference at the front of run, which starts with
// '&': one of the five predefined entities, or a decimal (&#10;) or hex
// (&#xA;) character reference. A reference to a surrogate code point
// decodes to U+FFFD, as a conversion to a Go string would make it.
func reference(run []byte) (r rune, width int, ok bool) {
	for _, e := range entities {
		if bytes.HasPrefix(run, []byte(e.name)) {
			return e.r, len(e.name), true
		}
	}
	if !bytes.HasPrefix(run, []byte("&#")) {
		return 0, 0, false
	}
	i, base := 2, rune(10)
	if i < len(run) && run[i] == 'x' {
		i, base = 3, 16
	}
	digits := 0
	for ; i < len(run) && r <= utf8.MaxRune; i, digits = i+1, digits+1 {
		var d rune
		switch b := run[i]; {
		case '0' <= b && b <= '9':
			d = rune(b - '0')
		case base == 16 && 'a' <= b && b <= 'f':
			d = rune(b-'a') + 10
		case base == 16 && 'A' <= b && b <= 'F':
			d = rune(b-'A') + 10
		default:
			if b != ';' || digits == 0 {
				return 0, 0, false
			}
			if 0xD800 <= r && r <= 0xDFFF {
				r = utf8.RuneError
			}
			return r, i + 1, true
		}
		r = r*base + d
	}
	return 0, 0, false
}
