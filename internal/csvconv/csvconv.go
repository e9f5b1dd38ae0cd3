// Package csvconv implements the data-manipulation converters of §4.3: a
// tool to convert a CSV file into ARFF format and vice versa, "particularly
// useful for using data sets obtained from commercial software such as
// MS-Excel".
package csvconv

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// Options controls CSV→dataset inference.
type Options struct {
	// HasHeader indicates the first row holds attribute names. When false,
	// attributes are named att1..attN.
	HasHeader bool
	// MissingTokens are cell spellings treated as missing in addition to "?"
	// and the empty string.
	MissingTokens []string
	// ForceNominal lists column names (or att<N> defaults) that must be read
	// as nominal even when every value parses as a number.
	ForceNominal []string
	// Relation names the resulting dataset; defaults to "csv-import".
	Relation string
}

// parse reads CSV from r, inferring each column's type: a column is numeric
// when every non-missing cell parses as a float, nominal otherwise (the
// nominal domain is the sorted set of observed values).
func parse(r io.Reader, opt Options) (*dataset.Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csvconv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("csvconv: empty input")
	}
	missing := map[string]bool{"?": true, "": true}
	for _, t := range opt.MissingTokens {
		missing[t] = true
	}
	var names []string
	rows := records
	if opt.HasHeader {
		names = records[0]
		rows = records[1:]
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("csvconv: no data rows")
	}
	width := len(rows[0])
	for i, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("csvconv: row %d has %d cells, expected %d", i+1, len(row), width)
		}
	}
	if names == nil {
		names = make([]string, width)
		for i := range names {
			names[i] = fmt.Sprintf("att%d", i+1)
		}
	} else if len(names) != width {
		return nil, fmt.Errorf("csvconv: header has %d cells, data has %d", len(names), width)
	}
	forced := make(map[string]bool, len(opt.ForceNominal))
	for _, n := range opt.ForceNominal {
		forced[n] = true
	}

	attrs := make([]*dataset.Attribute, width)
	for col := 0; col < width; col++ {
		numeric := !forced[names[col]]
		seen := map[string]bool{}
		for _, row := range rows {
			cell := strings.TrimSpace(row[col])
			if missing[cell] {
				continue
			}
			seen[cell] = true
			if numeric {
				if _, err := strconv.ParseFloat(cell, 64); err != nil {
					numeric = false
				}
			}
		}
		if numeric && len(seen) > 0 {
			attrs[col] = dataset.NewNumericAttribute(names[col])
		} else {
			labels := make([]string, 0, len(seen))
			for v := range seen {
				labels = append(labels, v)
			}
			sort.Strings(labels)
			attrs[col] = dataset.NewNominalAttribute(names[col], labels...)
		}
	}
	rel := opt.Relation
	if rel == "" {
		rel = "csv-import"
	}
	d := dataset.New(rel, attrs...)
	d.ClassIndex = width - 1
	for i, row := range rows {
		cells := make([]string, width)
		for col, cell := range row {
			cell = strings.TrimSpace(cell)
			if missing[cell] {
				cell = "?"
			}
			cells[col] = cell
		}
		if err := d.AddRow(cells); err != nil {
			return nil, fmt.Errorf("csvconv: row %d: %w", i+1, err)
		}
	}
	return d, nil
}

// ParseString parses CSV text.
func ParseString(s string, opt Options) (*dataset.Dataset, error) {
	return parse(strings.NewReader(s), opt)
}

// write renders d as CSV with a header row; missing cells become "?".
func write(w io.Writer, d *dataset.Dataset) error {
	cw := csv.NewWriter(w)
	header := make([]string, d.NumAttributes())
	for i, a := range d.Attrs {
		header[i] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("csvconv: %w", err)
	}
	row := make([]string, d.NumAttributes())
	for _, in := range d.Instances {
		for col := range d.Attrs {
			row[col] = d.CellString(in, col)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("csvconv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// Format renders d as a CSV string.
func Format(d *dataset.Dataset) string {
	var b strings.Builder
	_ = write(&b, d)
	return b.String()
}
