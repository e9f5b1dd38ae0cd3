// Package wire implements dmb1, the toolkit's compact binary dataset
// codec for batched scoring. One dmb1 block carries a whole dataset —
// schema plus length-prefixed columnar value blocks, one contiguous
// float64 slice per attribute — so a classifyBatch call ships N rows in
// a single SOAP part and the server decodes straight into the columnar
// layout the scoring loops iterate.
//
// Layout (all integers little-endian):
//
//	"DMB1"            magic (4 bytes)
//	u8  version       currently 1
//	u8  flags         bit0: weights block present; other bits must be 0
//	str relation      length-prefixed UTF-8 (u32 length)
//	u32 classIndex    0xFFFFFFFF encodes "no class"
//	u32 attrCount
//	per attribute:
//	  str name
//	  u8  kind        0 numeric, 1 nominal, 2 string
//	  u32 valueCount  then valueCount length-prefixed labels
//	[8]byte digest    first 8 bytes of sha256 over the schema section
//	u32 rows
//	per attribute:    u32 byte length, then rows float64 values
//	                  (missing = NaN, canonicalised on encode)
//	weights block     same framing, present iff flags bit0
//
// The schema digest lets a decoder reject payloads whose schema bytes
// were corrupted in transit before it trusts any column framing derived
// from them. The result direction uses a sibling block, "DMR1": labels
// plus per-class distribution columns (see MarshalResult).
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"strings"

	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// errf reports a malformed block as a *binfmt.FormatError; transports map
// it to a caller fault (the payload is wrong, not the server).
func errf(format string, args ...any) error { return binfmt.Errorf("wire", format, args...) }

const (
	magicDataset = "DMB1"
	magicResult  = "DMR1"
	version      = 1

	flagWeights = 1 << 0

	noClass = 0xFFFFFFFF
	// noIndex encodes a negative row index (DBSCAN noise in a DMC1
	// assignment column) on the wire.
	noIndex = 0xFFFFFFFF

	// maxBlockBytes bounds any single length-prefixed block so a corrupt
	// length cannot drive a multi-gigabyte allocation. It comfortably
	// exceeds the SOAP layer's 64 MiB envelope cap.
	maxBlockBytes = 256 << 20
)

// Encoding is the value of the SOAP `encoding` part that selects this
// codec on batch operations.
const Encoding = "dmb1"

// writeSchema writes the schema section (relation through attribute
// table) and its digest. The writer must hold the whole section
// unencoded: textWriter's contiguous bytes cover it.
func writeSchema(w *writer, relation string, classIndex int, attrs []*dataset.Attribute) error {
	start := len(w.buf)
	w.str(relation)
	ci := uint32(noClass)
	if classIndex >= 0 {
		ci = uint32(classIndex)
	}
	w.u32(ci)
	w.u32(uint32(len(attrs)))
	for _, a := range attrs {
		if a.Kind < dataset.Numeric || a.Kind > dataset.String {
			return errf("unsupported attribute kind %v", a.Kind)
		}
		w.str(a.Name)
		w.u8(uint8(a.Kind))
		w.u32(uint32(a.NumValues()))
		for i := 0; i < a.NumValues(); i++ {
			w.str(a.Value(i))
		}
	}
	sum := sha256.Sum256(w.buf[start:])
	copy(w.space(8, 1), sum[:8])
	return nil
}

// schemaSize is the number of bytes writeSchema writes, digest included.
func schemaSize(relation string, attrs []*dataset.Attribute) int {
	n := 4 + len(relation) + 4 + 4 + 8
	for _, a := range attrs {
		n += 4 + len(a.Name) + 1 + 4
		for i := 0; i < a.NumValues(); i++ {
			n += 4 + len(a.Value(i))
		}
	}
	return n
}

// readSchema reads the schema section and its digest. The block's bytes
// from its magic through the digest are the key of the dataset package's
// schema intern table: a block whose key is interned takes its schema
// from there, a verified copy of those very bytes, and any other is
// parsed, checked against its digest, and interned. The reader's window
// must still hold the block from offset 0.
func readSchema(r *reader) (relation string, classIndex int, attrs []*dataset.Attribute) {
	start := r.Offset()
	walkSchema(r)
	if r.Err() != nil {
		return "", -1, nil
	}
	key := r.Since(0)
	if s, ok := dataset.LookupSchema(key); ok {
		return s.Relation, s.ClassIndex, s.Attrs
	}
	relation, classIndex, attrs = parseSchema(key[start:])
	sum := sha256.Sum256(key[start : len(key)-8])
	switch {
	case string(key[len(key)-8:]) != string(sum[:8]):
		r.Failf("schema digest mismatch: payload corrupt")
	case classIndex >= len(attrs):
		r.Failf("class index %d out of range for %d attributes", classIndex, len(attrs))
	default:
		dataset.InternSchema(string(key), dataset.Schema{Relation: relation, ClassIndex: classIndex, Attrs: attrs})
	}
	return relation, classIndex, attrs
}

// walkSchema reads past the schema section and its digest, making every
// framing check parseSchema relies on and keeping nothing.
func walkSchema(r *reader) {
	r.Take(int(r.U32())) // relation
	r.U32()              // class index
	n := r.U32()
	if n > 1<<20 {
		r.Failf("attribute count %d exceeds limit", n)
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		name, kind, values := r.Take(int(r.U32())), r.U8(), r.U32()
		if values > 1<<24 {
			r.Failf("attribute %q declares %d values", string(name), values)
		}
		for v := uint32(0); v < values && r.Err() == nil; v++ {
			r.Take(int(r.U32()))
		}
		if kind > uint8(dataset.String) {
			r.Failf("unknown attribute kind code %d", kind)
		}
	}
	r.Take(8) // digest
}

// parseSchema decodes a schema section that walkSchema has read.
func parseSchema(sec []byte) (relation string, classIndex int, attrs []*dataset.Attribute) {
	r := rawReader(sec)
	relation, classIndex = r.Str(), -1
	if ci := r.U32(); ci != noClass {
		classIndex = int(ci)
	}
	attrs = make([]*dataset.Attribute, r.U32())
	for i := range attrs {
		name, kind, vals := r.Str(), dataset.Kind(r.U8()), make([]string, r.U32())
		for v := range vals {
			vals[v] = r.Str()
		}
		switch kind {
		case dataset.Nominal, dataset.String: // both keep their labels in order
			attrs[i] = dataset.NewNominalAttribute(name, vals...)
			attrs[i].Kind = kind
		default:
			attrs[i] = dataset.NewNumericAttribute(name)
		}
	}
	return relation, classIndex, attrs
}

// writeColumn writes a length-prefixed float64 block, a window at a time.
func writeColumn(w *writer, col []float64) {
	w.u32(uint32(8 * len(col)))
	for len(col) > 0 {
		b := w.space(8, len(col))
		for i, v := range col[:len(b)/8] {
			putF64(b[8*i:], v)
		}
		col = col[len(b)/8:]
	}
}

// readColumn parses a length-prefixed float64 block of exactly rows
// values, a window at a time, into the front of *slab when it has room
// (slab may be nil), else into a slice of its own.
func readColumn(r *reader, rows int, slab *[]float64) []float64 {
	if !readPrefix(r, rows, 8, "column") {
		return nil
	}
	var col []float64
	if slab != nil && rows > 0 && len(*slab) >= rows {
		col, *slab = (*slab)[:rows:rows], (*slab)[rows:]
	} else {
		col = make([]float64, rows)
	}
	for i := 0; i < rows; {
		b := r.next(8, rows-i)
		if b == nil {
			return nil
		}
		for k := 0; k < len(b); k, i = k+8, i+1 {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[k:]))
		}
	}
	return col
}

// columnSlab is storage for n columns of rows values, when what is left
// of the block could fill it: a corrupt row count must not make the
// decoder allocate more than the payload holds.
func columnSlab(r *reader, rows, n int) []float64 {
	if need := uint64(rows) * uint64(n); need == 0 || 8*need > uint64(r.Len()) {
		return nil
	}
	return make([]float64, rows*n)
}

// readPrefix reads a u32 byte length, which must be rows*width, and
// reports whether the block it prefixes is there to read.
func readPrefix(r *reader, rows, width int, what string) bool {
	if n := r.U32(); r.Err() == nil && uint64(n) != uint64(width)*uint64(rows) {
		r.Failf("%s block is %d bytes, want %d for %d rows", what, n, width*rows, rows)
	}
	return r.has(width * rows)
}

// writeIndexColumn writes a length-prefixed u32 block of row indices
// (DMR1 labels, DMC1 assignments), each below limit. With none set a
// negative index is legal and encodes as noIndex; what names the column
// in errors.
func writeIndexColumn(w *writer, idx []int, limit int, none bool, what string) error {
	w.u32(uint32(4 * len(idx)))
	for len(idx) > 0 {
		b := w.space(4, len(idx))
		for i, v := range idx[:len(b)/4] {
			u := uint32(v)
			if v < 0 && none {
				u = noIndex
			} else if v < 0 || v >= limit {
				return errf("%s %d out of range [0,%d)", what, v, limit)
			}
			binary.LittleEndian.PutUint32(b[4*i:], u)
		}
		idx = idx[len(b)/4:]
	}
	return nil
}

// readIndexColumn parses a length-prefixed u32 index block of exactly
// rows values, the inverse of writeIndexColumn: noIndex decodes as -1
// when none is set, and is out of range like any other index >= limit
// when it is not.
func readIndexColumn(r *reader, rows int, limit uint32, none bool, what string) []int {
	if !readPrefix(r, rows, 4, what) {
		return nil
	}
	idx := make([]int, rows)
	for i := 0; i < rows; {
		b := r.next(4, rows-i)
		if b == nil {
			return nil
		}
		for k := 0; k < len(b); k, i = k+4, i+1 {
			v := binary.LittleEndian.Uint32(b[k:])
			idx[i] = int(v)
			if v == noIndex && none {
				idx[i] = -1
			} else if v >= limit {
				r.Failf("row %d %s %d out of range [0,%d)", i, what, v, limit)
				return nil
			}
		}
	}
	return idx
}

// datasetLayout returns what a dmb1 encode of d needs before it writes:
// the weights column (nil when every weight is 1), the block's exact
// size, and the size of the part the schema digest covers from the start.
func datasetLayout(d *dataset.Dataset) (weights []float64, size, head int) {
	for _, in := range d.Instances {
		if in.Weight != 1 {
			weights = d.WeightsSlice()
			break
		}
	}
	blocks := len(d.Attrs)
	if weights != nil {
		blocks++
	}
	head = len(magicDataset) + 2 + schemaSize(d.Relation, d.Attrs)
	return weights, head + 4 + blocks*(4+8*len(d.Instances)), head
}

// writeDataset writes d as one dmb1 block. A row-backed dataset is
// gathered column by column straight from its rows: the column mirror
// d.Columns() would build first is never materialised.
func writeDataset(w *writer, d *dataset.Dataset, weights []float64) error {
	flags := uint8(0)
	if weights != nil {
		flags |= flagWeights
	}
	w.bytes(magicDataset)
	w.u8(version)
	w.u8(flags)
	if err := writeSchema(w, d.Relation, d.ClassIndex, d.Attrs); err != nil {
		return err
	}
	w.u32(uint32(len(d.Instances)))
	if d.HasColumns() {
		for _, col := range d.Columns() {
			writeColumn(w, col)
		}
	} else {
		for j := range d.Attrs {
			writeRowColumn(w, d.Instances, j)
		}
	}
	if weights != nil {
		writeColumn(w, weights)
	}
	return nil
}

// writeRowColumn writes attribute j of rows as writeColumn would its
// column. A short row reads as zeros, as in the column mirror.
func writeRowColumn(w *writer, rows []*dataset.Instance, j int) {
	w.u32(uint32(8 * len(rows)))
	for len(rows) > 0 {
		b := w.space(8, len(rows))
		for i, in := range rows[:len(b)/8] {
			v := 0.0
			if j < len(in.Values) {
				v = in.Values[j]
			}
			putF64(b[8*i:], v)
		}
		rows = rows[len(b)/8:]
	}
}

// MarshalBase64 encodes the dataset straight into the standard base64
// text of its dmb1 block; the string is the one allocation.
func MarshalBase64(d *dataset.Dataset) (string, error) {
	weights, size, head := datasetLayout(d)
	var stage [stageBytes]byte
	var text strings.Builder
	w := textWriter(&text, stage[:], size, head)
	if err := writeDataset(&w, d, weights); err != nil {
		return "", err
	}
	return w.finish(), nil
}

// Unmarshal decodes one dmb1 block into a column-backed dataset. The
// decoded column slices become the dataset's columnar backing directly;
// dataset.FromColumns validates nominal indices so corrupt payloads
// surface as errors, never panics.
func Unmarshal(b []byte) (*dataset.Dataset, error) {
	r := rawReader(b)
	return readDataset(&r)
}

// UnmarshalBase64 decodes the base64 text of a dmb1 block straight into
// the dataset's columns.
func UnmarshalBase64(s string) (*dataset.Dataset, error) {
	var stage [stageBytes]byte
	r := textReader(s, stage[:])
	if d, err := readDataset(&r); err == nil {
		return d, nil
	}
	return decodeText(s, "payload", Unmarshal)
}

// decodeText is where a *Base64 decoder goes when its text reader stops:
// it decodes the text whole, as encoding/base64 would, and hands the
// block to the kind's raw decoder, so that whatever the text — line
// breaks, bad characters, a block that is itself malformed — the outcome
// is exactly the two-pass codec's, error text included.
func decodeText[T any](s, what string, decode func([]byte) (*T, error)) (*T, error) {
	b, err := decode64(s)
	if err != nil {
		return nil, errf("%s is not valid base64: %v", what, err)
	}
	return decode(b)
}

func readDataset(r *reader) (*dataset.Dataset, error) {
	r.keep = 0 // readSchema keys the table by the block's head
	r.Header(magicDataset, version)
	weighted := false
	if flags := r.U8(); flags&^flagWeights != 0 {
		r.Failf("unknown flags 0x%02x", flags)
	} else {
		weighted = flags != 0
	}
	relation, classIndex, attrs := readSchema(r)
	r.keep = noKeep
	rows := int(r.U32())
	if uint64(rows)*uint64(len(attrs))*8 > maxBlockBytes {
		r.Failf("%d rows x %d attributes exceeds payload limit", rows, len(attrs))
	}
	cols := make([][]float64, len(attrs))
	n := len(attrs)
	if weighted {
		n++
	}
	slab := columnSlab(r, rows, n)
	for j := range cols {
		cols[j] = readColumn(r, rows, &slab)
	}
	var weights []float64
	if weighted {
		weights = readColumn(r, rows, &slab)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	d, err := dataset.FromColumns(relation, attrs, classIndex, cols, weights)
	if err != nil {
		return nil, errf("%v", err)
	}
	return d, nil
}

// Result is the decoded form of a DMR1 scoring-response block: one
// predicted label per input row plus the per-class distribution each
// prediction was taken from.
type Result struct {
	Classes       []string    // class label names, distribution column order
	Labels        []int       // per-row argmax index into Classes
	Distributions [][]float64 // Distributions[c][i] = P(class c | row i)
}

// size is the exact length of res's DMR1 block.
func (res *Result) size() int {
	rows := len(res.Labels)
	n := len(magicResult) + 1 + 4 + 4 + 4 + 4*rows + len(res.Distributions)*(4+8*rows)
	for _, name := range res.Classes {
		n += 4 + len(name)
	}
	return n
}

// MarshalResultBase64 encodes a scoring result straight into the base64
// text of its DMR1 block:
//
//	"DMR1" u8 version
//	u32 classCount, then classCount length-prefixed names
//	u32 rows
//	labels block: u32 byte length, rows u32 indices
//	per class: length-prefixed float64 column of rows probabilities
func MarshalResultBase64(res *Result) (string, error) {
	if err := res.check(); err != nil {
		return "", err
	}
	var stage [stageBytes]byte
	var text strings.Builder
	w := textWriter(&text, stage[:], res.size(), 0)
	if err := res.write(&w); err != nil {
		return "", err
	}
	return w.finish(), nil
}

func (res *Result) check() error {
	if len(res.Distributions) != len(res.Classes) {
		return errf("%d distribution columns for %d classes", len(res.Distributions), len(res.Classes))
	}
	for c, col := range res.Distributions {
		if len(col) != len(res.Labels) {
			return errf("class %d distribution has %d rows, want %d", c, len(col), len(res.Labels))
		}
	}
	return nil
}

func (res *Result) write(w *writer) error {
	w.bytes(magicResult)
	w.u8(version)
	w.u32(uint32(len(res.Classes)))
	for _, name := range res.Classes {
		w.str(name)
	}
	w.u32(uint32(len(res.Labels)))
	if err := writeIndexColumn(w, res.Labels, len(res.Classes), false, "label"); err != nil {
		return err
	}
	for _, col := range res.Distributions {
		writeColumn(w, col)
	}
	return nil
}

// UnmarshalResult decodes one DMR1 block.
func UnmarshalResult(b []byte) (*Result, error) {
	r := rawReader(b)
	return readResult(&r)
}

// UnmarshalResultBase64 decodes the base64 text of a DMR1 block straight
// into its columns.
func UnmarshalResultBase64(s string) (*Result, error) {
	var stage [stageBytes]byte
	r := textReader(s, stage[:])
	if res, err := readResult(&r); err == nil {
		return res, nil
	}
	return decodeText(s, "result", UnmarshalResult)
}

func readResult(r *reader) (*Result, error) {
	r.Header(magicResult, version)
	classCount := r.U32()
	if classCount > 1<<24 {
		r.Failf("class count %d exceeds limit", classCount)
	}
	classes := make([]string, 0, min(classCount, uint32(r.Len()/4)))
	for i := uint32(0); i < classCount && r.Err() == nil; i++ {
		classes = append(classes, r.Str())
	}
	rows := int(r.U32())
	labels := readIndexColumn(r, rows, classCount, false, "label")
	dists := make([][]float64, len(classes))
	slab := columnSlab(r, rows, len(dists))
	for c := range dists {
		dists[c] = readColumn(r, rows, &slab)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return &Result{Classes: classes, Labels: labels, Distributions: dists}, nil
}
