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
//	u8  flags         bit0: weights block present
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
	"encoding/base64"
	"encoding/binary"
	"math"
	"strings"
	"sync"

	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// FormatError reports a malformed block. Decoders wrap it with positional
// context; transports map any *FormatError to a caller fault (the payload
// is wrong, not the server).
type FormatError = binfmt.FormatError

func errf(format string, args ...any) error { return binfmt.Errorf("wire", format, args...) }

func newReader(b []byte) *binfmt.Reader { return binfmt.NewReader("wire", b) }

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

// writeSchema appends the schema section (relation through attribute
// table) and returns the byte range it occupies, for digesting.
func writeSchema(w *binfmt.Writer, relation string, classIndex int, attrs []*dataset.Attribute) error {
	start := len(w.Buf)
	w.Str(relation)
	ci := uint32(noClass)
	if classIndex >= 0 {
		ci = uint32(classIndex)
	}
	w.U32(ci)
	w.U32(uint32(len(attrs)))
	for _, a := range attrs {
		if a.Kind < dataset.Numeric || a.Kind > dataset.String {
			return errf("unsupported attribute kind %v", a.Kind)
		}
		w.Str(a.Name)
		w.U8(uint8(a.Kind))
		w.U32(uint32(a.NumValues()))
		for i := 0; i < a.NumValues(); i++ {
			w.Str(a.Value(i))
		}
	}
	sum := sha256.Sum256(w.Buf[start:])
	w.Buf = append(w.Buf, sum[:8]...)
	return nil
}

// schemaSize is the number of bytes writeSchema appends, digest included.
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

// readSchema parses the schema section, verifying its digest.
func readSchema(r *binfmt.Reader) (relation string, classIndex int, attrs []*dataset.Attribute) {
	start := r.Offset()
	relation, classIndex = r.Str(), -1
	if ci := r.U32(); ci != noClass {
		classIndex = int(ci)
	}
	if n := r.U32(); n > 1<<20 {
		r.Failf("attribute count %d exceeds limit", n)
	} else {
		attrs = make([]*dataset.Attribute, 0, min(n, uint32(r.Len()/9)))
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			attrs = append(attrs, readAttr(r))
		}
	}
	sum := sha256.Sum256(r.Since(start))
	if digest := r.Take(8); digest != nil && string(digest) != string(sum[:8]) {
		r.Failf("schema digest mismatch: payload corrupt")
	}
	if classIndex >= len(attrs) {
		r.Failf("class index %d out of range for %d attributes", classIndex, len(attrs))
	}
	return relation, classIndex, attrs
}

// readAttr parses one attribute of the schema table; it never returns nil.
func readAttr(r *binfmt.Reader) *dataset.Attribute {
	name, kind, n := r.Str(), dataset.Kind(r.U8()), r.U32()
	if n > 1<<24 {
		r.Failf("attribute %q declares %d values", name, n)
		n = 0
	}
	vals := make([]string, 0, min(n, uint32(r.Len()/4)))
	for v := uint32(0); v < n && r.Err() == nil; v++ {
		vals = append(vals, r.Str())
	}
	switch kind {
	case dataset.Nominal, dataset.String: // both keep their labels in order
		a := dataset.NewNominalAttribute(name, vals...)
		a.Kind = kind
		return a
	case dataset.Numeric:
	default:
		r.Failf("unknown attribute kind code %d", kind)
	}
	return dataset.NewNumericAttribute(name)
}

// writeColumn appends a length-prefixed float64 block: the buffer grows
// once for the whole column, then each value is stored in place. NaNs of
// any payload are written as the one canonical NaN that stands for
// "missing".
func writeColumn(w *binfmt.Writer, col []float64) {
	w.U32(uint32(8 * len(col)))
	block := w.Extend(8 * len(col))
	for i, v := range col {
		if v != v {
			v = math.NaN()
		}
		binary.LittleEndian.PutUint64(block[8*i:], math.Float64bits(v))
	}
}

// readColumn parses a length-prefixed float64 block of exactly rows
// values: one bounds check for the column, then a straight load per value.
func readColumn(r *binfmt.Reader, rows int) []float64 {
	block := readBlock(r, rows, 8, "column")
	if block == nil {
		return nil
	}
	col := make([]float64, rows)
	for i := range col {
		col[i] = math.Float64frombits(binary.LittleEndian.Uint64(block[8*i:]))
	}
	return col
}

// readBlock reads a u32 byte length, which must be rows*width, and returns
// the block it prefixes, or nil once reading has failed.
func readBlock(r *binfmt.Reader, rows, width int, what string) []byte {
	if n := r.U32(); r.Err() == nil && uint64(n) != uint64(width)*uint64(rows) {
		r.Failf("%s block is %d bytes, want %d for %d rows", what, n, width*rows, rows)
	}
	return r.Take(width * rows)
}

// writeIndexColumn appends a length-prefixed u32 block of row indices
// (DMR1 labels, DMC1 assignments), each below limit. With none set a
// negative index is legal and encodes as noIndex; what names the column
// in errors.
func writeIndexColumn(w *binfmt.Writer, idx []int, limit int, none bool, what string) error {
	buf := binary.LittleEndian.AppendUint32(w.Buf, uint32(4*len(idx)))
	for _, v := range idx {
		u := uint32(v)
		if v < 0 && none {
			u = noIndex
		} else if v < 0 || v >= limit {
			return errf("%s %d out of range [0,%d)", what, v, limit)
		}
		buf = binary.LittleEndian.AppendUint32(buf, u)
	}
	w.Buf = buf
	return nil
}

// readIndexColumn parses a length-prefixed u32 index block of exactly
// rows values, the inverse of writeIndexColumn: noIndex decodes as -1
// when none is set, and is out of range like any other index >= limit
// when it is not.
func readIndexColumn(r *binfmt.Reader, rows int, limit uint32, none bool, what string) []int {
	block := readBlock(r, rows, 4, what)
	if block == nil {
		return nil
	}
	idx := make([]int, rows)
	for i := range idx {
		v := binary.LittleEndian.Uint32(block[4*i:])
		idx[i] = int(v)
		if v == noIndex && none {
			idx[i] = -1
		} else if v >= limit {
			r.Failf("row %d %s %d out of range [0,%d)", i, what, v, limit)
			return nil
		}
	}
	return idx
}

// Marshal encodes the dataset as one dmb1 block. Weights are encoded
// only when any instance weight differs from 1. The block is allocated
// once, at its exact size.
func Marshal(d *dataset.Dataset) ([]byte, error) { return appendDataset(nil, d) }

// appendDataset is Marshal into dst's storage when that is large enough.
func appendDataset(dst []byte, d *dataset.Dataset) ([]byte, error) {
	rows := len(d.Instances)
	var weights []float64
	for _, in := range d.Instances {
		if in.Weight != 1 {
			weights = d.WeightsSlice()
			break
		}
	}
	blocks := len(d.Attrs)
	flags := uint8(0)
	if weights != nil {
		flags |= flagWeights
		blocks++
	}
	size := len(magicDataset) + 2 + schemaSize(d.Relation, d.Attrs) + 4 + blocks*(4+8*rows)
	if cap(dst) < size {
		dst = make([]byte, 0, size)
	}

	w := &binfmt.Writer{Buf: append(dst[:0], magicDataset...)}
	w.U8(version)
	w.U8(flags)
	if err := writeSchema(w, d.Relation, d.ClassIndex, d.Attrs); err != nil {
		return nil, err
	}
	w.U32(uint32(rows))
	if d.HasColumns() {
		for _, col := range d.Columns() {
			writeColumn(w, col)
		}
	} else {
		writeRows(w, d.Instances, len(d.Attrs))
	}
	if weights != nil {
		writeColumn(w, weights)
	}
	return w.Buf, nil
}

// writeRows appends what writeColumn would for every column of a
// row-backed dataset, gathering the cells straight from the rows: the
// column mirror d.Columns() would build first is never materialised.
func writeRows(w *binfmt.Writer, rows []*dataset.Instance, attrs int) {
	stride := 4 + 8*len(rows)
	blocks := w.Extend(attrs * stride)
	for j := 0; j < attrs; j++ {
		binary.LittleEndian.PutUint32(blocks[j*stride:], uint32(8*len(rows)))
	}
	for i, in := range rows {
		for j, v := range in.Values {
			if v != v {
				v = math.NaN()
			}
			binary.LittleEndian.PutUint64(blocks[j*stride+4+8*i:], math.Float64bits(v))
		}
		for j := len(in.Values); j < attrs; j++ { // a short row reads as zeros, as in the mirror
			binary.LittleEndian.PutUint64(blocks[j*stride+4+8*i:], 0)
		}
	}
}

// Unmarshal decodes one dmb1 block into a column-backed dataset. The
// decoded column slices become the dataset's columnar backing directly;
// dataset.FromColumns validates nominal indices so corrupt payloads
// surface as errors, never panics.
func Unmarshal(b []byte) (*dataset.Dataset, error) {
	r := newReader(b)
	r.Header(magicDataset, version)
	flags := r.U8()
	relation, classIndex, attrs := readSchema(r)
	rows := int(r.U32())
	if uint64(rows)*uint64(len(attrs))*8 > maxBlockBytes {
		r.Failf("%d rows x %d attributes exceeds payload limit", rows, len(attrs))
	}
	cols := make([][]float64, len(attrs))
	for j := range cols {
		cols[j] = readColumn(r, rows)
	}
	var weights []float64
	if flags&flagWeights != 0 {
		weights = readColumn(r, rows)
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

// MarshalResult encodes a scoring result as one DMR1 block:
//
//	"DMR1" u8 version
//	u32 classCount, then classCount length-prefixed names
//	u32 rows
//	labels block: u32 byte length, rows u32 indices
//	per class: length-prefixed float64 column of rows probabilities
func MarshalResult(res *Result) ([]byte, error) {
	rows := len(res.Labels)
	if len(res.Distributions) != len(res.Classes) {
		return nil, errf("%d distribution columns for %d classes", len(res.Distributions), len(res.Classes))
	}
	for c, col := range res.Distributions {
		if len(col) != rows {
			return nil, errf("class %d distribution has %d rows, want %d", c, len(col), rows)
		}
	}
	w := &binfmt.Writer{Buf: make([]byte, 0, 32+4*rows+8*rows*len(res.Classes))}
	w.Buf = append(w.Buf, magicResult...)
	w.U8(version)
	w.U32(uint32(len(res.Classes)))
	for _, name := range res.Classes {
		w.Str(name)
	}
	w.U32(uint32(rows))
	if err := writeIndexColumn(w, res.Labels, len(res.Classes), false, "label"); err != nil {
		return nil, err
	}
	for _, col := range res.Distributions {
		writeColumn(w, col)
	}
	return w.Buf, nil
}

// UnmarshalResult decodes one DMR1 block.
func UnmarshalResult(b []byte) (*Result, error) {
	r := newReader(b)
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
	for c := range dists {
		dists[c] = readColumn(r, rows)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return &Result{Classes: classes, Labels: labels, Distributions: dists}, nil
}

// wrap64 base64-wraps a freshly marshalled block for transport as an
// XML-safe SOAP part. The text is encoded straight into the string's own
// storage, allocated once at its exact size.
func wrap64(b []byte, err error) (string, error) {
	if err != nil {
		return "", err
	}
	var s strings.Builder
	s.Grow(base64.StdEncoding.EncodedLen(len(b)))
	enc := base64.NewEncoder(base64.StdEncoding, &s)
	_, _ = enc.Write(b) // a strings.Builder does not fail
	_ = enc.Close()
	return s.String(), nil
}

// blockPool recycles the storage of binary blocks that live only between
// a codec and the base64 wrap: the 360 KB a 4096-row dataset takes is
// otherwise allocated, zeroed and collected once per call in each
// direction.
var blockPool = sync.Pool{New: func() any { return new([]byte) }}

// unwrap64 strips the base64 wrap and hands the block to its decoder,
// which must not keep a reference into it: the block is recycled.
func unwrap64[T any](s, what string, decode func([]byte) (*T, error)) (*T, error) {
	block := blockPool.Get().(*[]byte)
	defer blockPool.Put(block)
	if need := base64.StdEncoding.DecodedLen(len(s)); cap(*block) < need {
		*block = make([]byte, need)
	}
	n, err := base64.StdEncoding.Decode((*block)[:cap(*block)], []byte(s))
	if err != nil {
		return nil, errf("%s is not valid base64: %v", what, err)
	}
	return decode((*block)[:n])
}

// MarshalBase64 encodes the dataset and wraps it in standard base64.
func MarshalBase64(d *dataset.Dataset) (string, error) {
	block := blockPool.Get().(*[]byte)
	defer blockPool.Put(block)
	b, err := appendDataset(*block, d)
	if err != nil {
		return "", err
	}
	*block = b
	return wrap64(b, nil)
}

// UnmarshalBase64 decodes a base64-wrapped dmb1 block.
func UnmarshalBase64(s string) (*dataset.Dataset, error) { return unwrap64(s, "payload", Unmarshal) }

// MarshalResultBase64 encodes a scoring result base64-wrapped.
func MarshalResultBase64(res *Result) (string, error) { return wrap64(MarshalResult(res)) }

// UnmarshalResultBase64 decodes a base64-wrapped DMR1 block.
func UnmarshalResultBase64(s string) (*Result, error) { return unwrap64(s, "result", UnmarshalResult) }
