// Package arff reads and writes the Attribute Relation File Format (ARFF),
// the native data format of the paper's toolkit: every data-mining Web
// Service in §4.1 requires its dataset "in the ARFF format".
package arff

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/dataset"
)

// Parse reads an ARFF document from r into a Dataset. Comments (%), blank
// lines, quoted identifiers and sparse whitespace are handled; date and
// relational attributes are not supported (the toolkit never uses them).
func Parse(r io.Reader) (*dataset.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	d := dataset.New("unnamed")
	inData := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if !inData {
			lower := strings.ToLower(line)
			switch {
			case strings.HasPrefix(lower, "@relation"):
				name := strings.TrimSpace(line[len("@relation"):])
				d.Relation = unquote(name)
			case strings.HasPrefix(lower, "@attribute"):
				attr, err := parseAttribute(strings.TrimSpace(line[len("@attribute"):]))
				if err != nil {
					return nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
				}
				d.Attrs = append(d.Attrs, attr)
			case strings.HasPrefix(lower, "@data"):
				if len(d.Attrs) == 0 {
					return nil, fmt.Errorf("arff: line %d: @data before any @attribute", lineNo)
				}
				inData = true
			default:
				return nil, fmt.Errorf("arff: line %d: unrecognised declaration %q", lineNo, line)
			}
			continue
		}
		cells, err := splitDataLine(line)
		if err != nil {
			return nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
		}
		if err := d.AddRow(cells); err != nil {
			return nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("arff: %w", err)
	}
	if !inData {
		return nil, fmt.Errorf("arff: missing @data section")
	}
	// By toolkit convention the last attribute is the class unless changed.
	if len(d.Attrs) > 0 {
		d.ClassIndex = len(d.Attrs) - 1
	}
	return d, nil
}

// ParseString is a convenience wrapper over Parse.
func ParseString(s string) (*dataset.Dataset, error) {
	return Parse(strings.NewReader(s))
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
		labels, err := splitDataLine(inner)
		if err != nil {
			return nil, err
		}
		for i := range labels {
			labels[i] = strings.TrimSpace(labels[i])
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

// splitDataLine splits a comma-separated ARFF data row honouring quotes.
func splitDataLine(line string) ([]string, error) {
	var cells []string
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
			cells = append(cells, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote != 0 {
		return nil, fmt.Errorf("unterminated quote in %q", line)
	}
	cells = append(cells, strings.TrimSpace(cur.String()))
	return cells, nil
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

// write renders d as an ARFF document.
func write(w io.Writer, d *dataset.Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "@relation %s\n\n", quoteToken(d.Relation))
	for _, a := range d.Attrs {
		fmt.Fprintln(bw, a.SpecString())
	}
	fmt.Fprintln(bw, "\n@data")
	for _, in := range d.Instances {
		for col := range d.Attrs {
			if col > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(quoteToken(d.CellString(in, col)))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Format renders d as an ARFF string.
func Format(d *dataset.Dataset) string {
	var b strings.Builder
	_ = write(&b, d)
	return b.String()
}

func quoteToken(s string) string {
	if s == "" {
		return "''"
	}
	if strings.ContainsAny(s, " \t,{}%") && s != "?" {
		return "'" + strings.ReplaceAll(s, "'", `\'`) + "'"
	}
	return s
}
