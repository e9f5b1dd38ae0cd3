// Package binfmt is the bounds-checked little-endian reader and writer
// behind model snapshots, and the FormatError that wire's block codec
// shares (wire keeps its own reader and writer, because they also run
// over base64 text a window at a time). Reader errors are sticky:
// the first failure is kept, later reads return zero values, and Err or End
// reports it, so a decoder reads a whole structure and checks once. Every
// count is held to the bytes left before anything is sized from it, so a
// decoder never allocates more than a constant multiple of its input.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// FormatError reports bytes that are not a valid encoding. Codec names the
// format ("wire", "model"); transports map any *FormatError to a caller
// fault (the payload is wrong, not the server).
type FormatError struct {
	Codec string
	Msg   string
}

func (e *FormatError) Error() string { return e.Codec + ": " + e.Msg }

// Errorf returns a *FormatError of codec.
func Errorf(codec, format string, args ...any) error {
	return &FormatError{Codec: codec, Msg: fmt.Sprintf(format, args...)}
}

// Writer appends an encoding to Buf. Sym writes a string as an index into
// a table the writer keeps, which AppendSyms emits.
type Writer struct {
	Buf  []byte
	err  error
	syms map[string]uint64
	tab  []string
	strs []string // SymAt's list; memo[i] is 1 + strs[i]'s table index, 0 until used
	memo []uint64
}

// Reset empties w for reuse, keeping its buffers.
func (w *Writer) Reset() {
	clear(w.syms)
	w.Buf, w.err, w.tab, w.strs = w.Buf[:0], nil, w.tab[:0], nil
}

// Failf records the first error that makes the encoding unusable.
func (w *Writer) Failf(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first error recorded.
func (w *Writer) Err() error { return w.err }

func (w *Writer) U8(v uint8)       { w.Buf = append(w.Buf, v) }
func (w *Writer) U32(v uint32)     { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) F64(v float64)    { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(v)) }
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }
func (w *Writer) Varint(v int64)   { w.Buf = binary.AppendVarint(w.Buf, v) }

func (w *Writer) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.U8(b)
}

// Str writes a u32 byte length, then the bytes.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

// F64s writes a uvarint count, then each value's bits.
func (w *Writer) F64s(xs []float64) {
	w.Uvarint(uint64(len(xs)))
	w.Buf = slices.Grow(w.Buf, 8*len(xs))
	for _, v := range xs {
		w.F64(v)
	}
}

// Sym writes s as the uvarint index of its entry in the string table.
func (w *Writer) Sym(s string) { w.Uvarint(w.sym(s)) }

func (w *Writer) sym(s string) uint64 {
	i, ok := w.syms[s]
	if !ok {
		if w.syms == nil {
			w.syms = map[string]uint64{}
		}
		i = uint64(len(w.tab))
		w.syms[s] = i
		w.tab = append(w.tab, s)
	}
	return i
}

// SymsOf makes strs the list SymAt resolves.
func (w *Writer) SymsOf(strs []string) {
	w.strs, w.memo = strs, slices.Grow(w.memo[:0], len(strs))[:len(strs)]
	clear(w.memo)
}

// SymAt returns the string-table index Sym would write for strs[i] of the
// last SymsOf list, looking each entry up in the table only once.
func (w *Writer) SymAt(i int32) uint64 {
	if w.memo[i] == 0 {
		w.memo[i] = w.sym(w.strs[i]) + 1
	}
	return w.memo[i] - 1
}

// AppendSyms appends the string table Sym built to dst: a uvarint count,
// each entry's uvarint byte length, then the entries back to back.
func (w *Writer) AppendSyms(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(w.tab)))
	for _, s := range w.tab {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	for _, s := range w.tab {
		dst = append(dst, s...)
	}
	return dst
}

// Reader decodes b; see the package comment for its error discipline.
type Reader struct {
	buf   []byte
	off   int
	codec string
	err   error
	syms  []string
}

// NewReader reads b; its errors are *FormatErrors of codec.
func NewReader(codec string, b []byte) *Reader { return &Reader{buf: b, codec: codec} }

// Failf records a *FormatError unless one is already recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = Errorf(r.codec, format, args...)
	}
}

// Err returns the first error recorded.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Rest returns the unread bytes, or nil once reading has failed, for a
// decoder with its own loop; Take then skips the bytes it used.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.buf[r.off:]
}

// Take returns the next n bytes, or nil once reading has failed.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.Failf("truncated payload at offset %d (need %d of %d bytes)", r.off, n, len(r.buf))
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off : r.off]
}

var zeros [8]byte

// fixed returns the next n <= 8 bytes, or zeros once reading has failed.
func (r *Reader) fixed(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (r *Reader) U8() uint8    { return r.fixed(1)[0] }
func (r *Reader) U32() uint32  { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) F64() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(r.fixed(8))) }

func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Failf("bad boolean %d at offset %d", v, r.off-1)
	}
	return v == 1
}

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if off := r.off; off < len(r.buf) && r.buf[off] < 0x80 { // the common one-byte case
		r.off++
		return uint64(r.buf[off])
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads what Writer.Varint writes (a zig-zag uvarint).
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a uvarint and fails unless it is below limit.
func (r *Reader) Int(limit int) int {
	v := r.Uvarint()
	if v >= uint64(limit) {
		r.Failf("index %d out of range [0,%d) at offset %d", v, limit, r.off)
		return 0
	}
	return int(v)
}

// Count reads an element count the bytes left can hold at size >= 1 bytes
// per element, so the caller may allocate for it.
func (r *Reader) Count(size int) int {
	n := r.Uvarint()
	if n > uint64(r.Len()/size) {
		r.Failf("count %d exceeds the %d bytes left at offset %d", n, r.Len(), r.off)
		return 0
	}
	return int(n)
}

// Str reads what Writer.Str writes.
func (r *Reader) Str() string { return string(r.Take(int(r.U32()))) }

// F64s reads what Writer.F64s writes; an empty list reads as nil.
func (r *Reader) F64s() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	xs := make([]float64, n)
	r.ReadF64s(xs)
	return xs
}

// ReadF64s fills dst with float64s stored as their bits.
func (r *Reader) ReadF64s(dst []float64) {
	if b := r.Take(8 * len(dst)); b != nil {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// Header checks the frame a block opens with — its magic, then the
// version byte — and leaves r just past it.
func (r *Reader) Header(magic string, version uint8) {
	if b := r.Take(len(magic)); b != nil && string(b) != magic {
		r.Failf("bad magic %q, want %q", b, magic)
	} else if v := r.U8(); r.err == nil && v != version {
		r.Failf("unsupported %s version %d", magic, v)
	}
}

// End closes the frame: a block is exactly its declared contents, so
// anything after them is a framing error. It returns the first error.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Failf("%d trailing bytes after the block", len(r.buf)-r.off)
	}
	return r.err
}

// ReadSyms reads the string table AppendSyms writes, for Sym to resolve.
// The entries share one allocation.
func (r *Reader) ReadSyms() {
	n := r.Count(1)
	lens, total := r.off, 0
	for i := 0; i < n && r.err == nil; i++ {
		if l := r.Uvarint(); l > uint64(max(r.Len()-total, 0)) {
			r.Failf("string table entry of %d bytes overruns the payload", l)
		} else {
			total += int(l)
		}
	}
	blob := string(r.Take(total))
	if r.err != nil {
		return
	}
	r.syms = make([]string, n)
	for i := range r.syms {
		l, m := binary.Uvarint(r.buf[lens:])
		lens += m
		r.syms[i], blob = blob[:l], blob[l:]
	}
}

// Sym reads a string-table index and returns its entry.
func (r *Reader) Sym() string {
	if i := r.Int(len(r.syms)); r.err == nil {
		return r.syms[i]
	}
	return ""
}

// Syms returns the string table ReadSyms read; a decoder may keep it.
func (r *Reader) Syms() []string { return r.syms }

// Codec runs one description of a structure both ways: each method writes
// what its argument points at when W is set and reads into it when R is
// set, so a snapshot's writer and reader cannot drift apart.
type Codec struct {
	W *Writer
	R *Reader
}

func code[T any](c Codec, p *T, write func(*Writer, T), read func(*Reader) T) {
	if c.R != nil {
		*p = read(c.R)
	} else {
		write(c.W, *p)
	}
}

// Reading reports whether c decodes.
func (c Codec) Reading() bool { return c.R != nil }

// Failf records an error on whichever side c runs.
func (c Codec) Failf(format string, args ...any) {
	if c.R != nil {
		c.R.Failf(format, args...)
	} else {
		c.W.Failf(format, args...)
	}
}

func (c Codec) Bool(p *bool)      { code(c, p, (*Writer).Bool, (*Reader).Bool) }
func (c Codec) F64(p *float64)    { code(c, p, (*Writer).F64, (*Reader).F64) }
func (c Codec) Int64(p *int64)    { code(c, p, (*Writer).Varint, (*Reader).Varint) }
func (c Codec) Sym(p *string)     { code(c, p, (*Writer).Sym, (*Reader).Sym) }
func (c Codec) F64s(p *[]float64) { code(c, p, (*Writer).F64s, (*Reader).F64s) }

// Has codes whether an optional part follows: present, or the flag read.
func (c Codec) Has(present bool) bool {
	c.Bool(&present)
	return present
}

// Int codes a non-negative int below 1<<31 as a uvarint.
func (c Codec) Int(p *int) {
	code(c, p, func(w *Writer, v int) { w.Uvarint(uint64(v)) }, func(r *Reader) int { return r.Int(math.MaxInt32) })
}

// Signed codes any int as a zig-zag varint.
func (c Codec) Signed(p *int) {
	code(c, p, func(w *Writer, v int) { w.Varint(int64(v)) }, func(r *Reader) int { return int(r.Varint()) })
}

// Count codes a count the bytes left can hold (see Reader.Count).
func (c Codec) Count(p *int, size int) {
	code(c, p, func(w *Writer, v int) { w.Uvarint(uint64(v)) }, func(r *Reader) int { return r.Count(size) })
}

// List codes the length of the list the caller codes next, sizing it when
// reading as Count allows; an empty list reads as nil.
func List[T any](c Codec, p *[]T, size int) {
	n := len(*p)
	if c.Count(&n, size); c.R != nil {
		*p = nil
		if n > 0 {
			*p = make([]T, n)
		}
	}
}

// F64Rows codes a list of rows of width values each.
func (c Codec) F64Rows(p *[][]float64, width int) {
	List(c, p, 1)
	for i := range *p {
		if c.F64s(&(*p)[i]); len((*p)[i]) != width {
			c.Failf("row %d has %d values, want %d", i, len((*p)[i]), width)
			return
		}
	}
}
