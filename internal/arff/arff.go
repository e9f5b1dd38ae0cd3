// Package arff reads and writes the Attribute Relation File Format (ARFF),
// the native data format of the paper's toolkit: every data-mining Web
// Service in §4.1 requires its dataset "in the ARFF format".
package arff

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// Parse reads an ARFF document from r into a Dataset; see ParseString.
func Parse(r io.Reader) (*dataset.Dataset, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("arff: %w", err)
	}
	return ParseString(string(b))
}

// ParseString reads an ARFF document into a Dataset. Comments (%), blank
// lines, quoted identifiers and sparse whitespace are handled; date and
// relational attributes are not supported (the toolkit never uses them).
// By toolkit convention the last attribute is the class.
//
// The header, the text before the @data line, is parsed once per distinct
// text: later documents with the same header take its attributes from
// the dataset package's schema intern table. The rows are parsed in place,
// into value storage sized from the number of data lines.
func ParseString(s string) (*dataset.Dataset, error) {
	header, rest, lineNo := "", s, 0
	for {
		if rest == "" {
			// No @data line: the whole document is header, and parsing it
			// reports its first bad line before the missing section.
			if _, _, err := parseHeader(s); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("arff: missing @data section")
		}
		start := len(s) - len(rest)
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		lineNo++
		if hasKeyword(strings.TrimSpace(line), "@data") {
			header = s[:start]
			break
		}
	}
	schema, ok := dataset.LookupSchema(header)
	if !ok {
		// Names and labels are cut from a copy of the header, which is also
		// the table's key, so neither pins the document.
		key := strings.Clone(header)
		relation, attrs, err := parseHeader(key)
		if err != nil {
			return nil, err
		}
		if len(attrs) == 0 {
			return nil, fmt.Errorf("arff: line %d: @data before any @attribute", lineNo)
		}
		schema = dataset.Schema{Relation: relation, ClassIndex: len(attrs) - 1, Attrs: attrs}
		dataset.InternSchema(key, schema)
	}
	d := dataset.New(schema.Relation, schema.Attrs...)
	d.ClassIndex = schema.ClassIndex

	// A row is at least one byte per attribute, separators and line break
	// included, which bounds the storage a run of blank lines can claim.
	rows := strings.Count(rest, "\n")
	if rest != "" && rest[len(rest)-1] != '\n' {
		rows++
	}
	d.Grow(min(rows, len(rest)/len(schema.Attrs)+1))
	cells := make([]string, 0, len(schema.Attrs))
	for rest != "" {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '%' {
			continue
		}
		var err error
		if cells, err = splitDataLine(cells[:0], line); err != nil {
			return nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
		}
		if err := d.AddRow(cells); err != nil {
			return nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
		}
	}
	return d, nil
}

// parseHeader parses the declarations in h, which holds the lines before
// @data (or, when there is none, the whole document).
func parseHeader(h string) (relation string, attrs []*dataset.Attribute, err error) {
	relation = "unnamed"
	for lineNo := 1; h != ""; lineNo++ {
		var line string
		line, h, _ = strings.Cut(h, "\n")
		line = strings.TrimSpace(line)
		switch {
		case line == "" || line[0] == '%':
		case hasKeyword(line, "@relation"):
			relation = unquote(line[len("@relation"):])
		case hasKeyword(line, "@attribute"):
			attr, err := parseAttribute(strings.TrimSpace(line[len("@attribute"):]))
			if err != nil {
				return "", nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
			}
			attrs = append(attrs, attr)
		default:
			return "", nil, fmt.Errorf("arff: line %d: unrecognised declaration %q", lineNo, line)
		}
	}
	return relation, attrs, nil
}

// hasKeyword reports whether line opens with kw, in any letter case.
func hasKeyword(line, kw string) bool {
	return len(line) >= len(kw) && strings.EqualFold(line[:len(kw)], kw)
}

func parseAttribute(spec string) (*dataset.Attribute, error) {
	name, rest, err := takeName(spec)
	if err != nil {
		return nil, err
	}
	rest = strings.TrimSpace(rest)
	lower := strings.ToLower(rest)
	switch {
	case strings.HasPrefix(rest, "{"):
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return nil, fmt.Errorf("unterminated nominal specification %q", rest)
		}
		inner := rest[1:end]
		labels, err := splitDataLine(nil, inner)
		if err != nil {
			return nil, err
		}
		return dataset.NewNominalAttribute(name, labels...), nil
	case lower == "numeric" || lower == "real" || lower == "integer":
		return dataset.NewNumericAttribute(name), nil
	case lower == "string":
		return dataset.NewStringAttribute(name), nil
	default:
		return nil, fmt.Errorf("unsupported attribute type %q", rest)
	}
}

// takeName splits a possibly quoted attribute name from the remainder.
func takeName(s string) (name, rest string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", "", fmt.Errorf("empty attribute specification")
	}
	if s[0] == '\'' || s[0] == '"' {
		q := s[0]
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == q {
				return unescape(s[1:i]), s[i+1:], nil
			}
		}
		return "", "", fmt.Errorf("unterminated quoted name in %q", s)
	}
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return "", "", fmt.Errorf("attribute %q has no type", s)
	}
	return s[:i], s[i+1:], nil
}

// splitDataLine appends the cells of a comma-separated ARFF data row to
// dst, each trimmed, honouring quotes. A line without quotes is cut in
// place; only a quoted cell is copied out.
func splitDataLine(dst []string, line string) ([]string, error) {
	if !strings.ContainsAny(line, `'"`) {
		for {
			cell, rest, more := strings.Cut(line, ",")
			dst = append(dst, strings.TrimSpace(cell))
			if !more {
				return dst, nil
			}
			line = rest
		}
	}
	var cur strings.Builder
	inQuote := byte(0)
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inQuote != 0:
			if c == '\\' && i+1 < len(line) {
				cur.WriteByte(line[i+1])
				i++
			} else if c == inQuote {
				inQuote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			inQuote = c
		case c == ',':
			dst = append(dst, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote != 0 {
		return nil, fmt.Errorf("unterminated quote in %q", line)
	}
	return append(dst, strings.TrimSpace(cur.String())), nil
}

func unquote(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0] {
		return unescape(s[1 : len(s)-1])
	}
	return s
}

func unescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// Format renders d as an ARFF document, written straight into one string
// grown to an estimate of its length.
func Format(d *dataset.Dataset) string {
	var b strings.Builder
	b.Grow(formatSize(d))
	b.WriteString("@relation ")
	dataset.WriteToken(&b, d.Relation)
	b.WriteString("\n\n")
	for _, a := range d.Attrs {
		a.WriteSpec(&b)
		b.WriteByte('\n')
	}
	b.WriteString("\n@data\n")
	var num [32]byte
	for _, in := range d.Instances {
		for col, a := range d.Attrs {
			if col > 0 {
				b.WriteByte(',')
			}
			switch v := in.Values[col]; {
			case dataset.IsMissing(v):
				b.WriteByte('?')
			case a.Kind == dataset.Numeric:
				b.Write(strconv.AppendFloat(num[:0], v, 'g', -1, 64))
			default:
				dataset.WriteToken(&b, a.Value(int(v)))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// formatSize estimates Format's length: exact for bare tokens, with the
// widest label (or 24 bytes, a float's longest form) for every cell.
func formatSize(d *dataset.Dataset) int {
	n, row := 20+len(d.Relation), 0
	for _, a := range d.Attrs {
		n += 24 + len(a.Name)
		cell := 24
		if a.Kind != dataset.Numeric {
			cell = 1
			for i := 0; i < a.NumValues(); i++ {
				l := len(a.Value(i))
				n += l + 1
				cell = max(cell, l)
			}
		}
		row += cell + 1
	}
	return n + row*len(d.Instances)
}
