package wire

import (
	"encoding/binary"
	"math"
	"strings"
)

// One reader and one writer serve every block kind in both of its forms:
// the raw bytes (Marshal, Unmarshal, ...) and the base64 text a SOAP part
// carries (the *Base64 pairs). In text form the bytes exist only a
// stage at a time — an L1-sized window on the caller's stack that the
// writer encodes from and the reader decodes into — so a column goes
// straight between its float64s and the text, with no whole-block
// intermediate in either direction. That window is why these are not
// binfmt's Reader and Writer, which hold a whole block.

// stageBytes is the text form's window: a multiple of 6, so the word
// loops never split a group.
const stageBytes = 3072

// writer appends a block. Raw: buf is the block, allocated once at its
// exact size. Text: buf holds the bytes not yet encoded, and each time it
// fills, its whole quanta are encoded onto text.
type writer struct {
	buf  []byte
	text *strings.Builder
}

// rawWriter writes a block of exactly size bytes.
func rawWriter(size int) writer { return writer{buf: make([]byte, 0, size)} }

// textWriter writes the base64 text of a block of size bytes into text,
// grown once to its exact length. stage is the window; contiguous bytes
// at the block's start are never split by an encode (the DMB1 schema
// digests them).
func textWriter(text *strings.Builder, stage []byte, size, contiguous int) writer {
	text.Grow(encodedLen(size))
	if cap(stage) < contiguous {
		stage = make([]byte, 0, contiguous)
	}
	return writer{buf: stage[:0], text: text}
}

// space lengthens buf by room for k whole values of width bytes, 1 <= k
// <= n, and returns it for the caller to fill, every byte: it is not
// zeroed.
func (w *writer) space(width, n int) []byte {
	if cap(w.buf)-len(w.buf) < width {
		w.flush(false)
	}
	if cap(w.buf)-len(w.buf) < width { // only if a block's size was miscounted
		grown := make([]byte, len(w.buf), 2*cap(w.buf)+width)
		copy(grown, w.buf)
		w.buf = grown
	}
	l := len(w.buf)
	k := min(n, (cap(w.buf)-l)/width)
	w.buf = w.buf[:l+k*width]
	return w.buf[l:]
}

func (w *writer) u8(v uint8)   { w.space(1, 1)[0] = v }
func (w *writer) u32(v uint32) { binary.LittleEndian.PutUint32(w.space(4, 1), v) }

// bytes writes s, encoding as it goes when s outgrows the window.
func (w *writer) bytes(s string) {
	for len(s) > 0 {
		s = s[copy(w.space(1, len(s)), s):]
	}
}

// str writes a u32 byte length, then the bytes.
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.bytes(s)
}

// putF64 stores v, a NaN of any payload as the one canonical NaN that
// stands for "missing".
func putF64(b []byte, v float64) {
	if v != v {
		v = math.NaN()
	}
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

// flush encodes buf's whole quanta onto the text, or all of buf, padded,
// when final; a raw writer has nothing to flush.
func (w *writer) flush(final bool) {
	if w.text == nil {
		return
	}
	var out [stageBytes / 3 * 4]byte
	n := len(w.buf) / 3 * 3
	if final {
		n = len(w.buf)
	}
	for done := 0; done < n; {
		chunk := min(n-done, stageBytes)
		encode64(out[:], w.buf[done:done+chunk])
		w.text.Write(out[:encodedLen(chunk)])
		done += chunk
	}
	rest := copy(w.buf, w.buf[n:])
	w.buf = w.buf[:rest]
}

// finish returns the text of a text writer.
func (w *writer) finish() string {
	w.flush(true)
	return w.text.String()
}

// reader decodes a block. Raw: buf is the block. Text: buf is a window of
// the block's bytes decoded from text, refilled as reads reach its end.
// Errors are sticky, as in binfmt.Reader: the first failure is kept,
// later reads return zero values, and Err or End reports it. A text
// reader takes only plain alphabet text with at most a padded last
// quantum; it fails on anything else, and its caller then decodes the
// text whole with decode64, which rules on it.
type reader struct {
	buf  []byte
	base int    // block offset of buf[0]
	off  int    // block bytes read
	size int    // block length
	keep int    // lowest block offset the window must keep while refilling
	text string // text not yet decoded: whole quanta, the last one excepted
	last [3]byte
	nl   int // bytes of last still to append after text
	err  error
}

const noKeep = math.MaxInt

func rawReader(b []byte) reader { return reader{buf: b, size: len(b), keep: noKeep} }

// textReader reads the block whose base64 text is s through the window
// stage.
func textReader(s string, stage []byte) reader {
	r := reader{buf: stage[:0], keep: noKeep}
	if len(s) < 4 || len(s)%4 != 0 {
		r.Failf("text of %d characters is not whole quanta", len(s))
		return r
	}
	q, pad := s[len(s)-4:], 0
	if q[3] == '=' {
		pad = 1
		if q[2] == '=' {
			pad = 2
		}
	}
	v := uint32(0)
	for k := 0; k < 4-pad; k++ {
		v |= quad[k][q[k]]
	}
	if v&notAlphabet != 0 {
		r.Failf("last quantum %q is not base64", q)
		return r
	}
	r.last = [3]byte{byte(v >> 16), byte(v >> 8), byte(v)}
	r.nl = 3 - pad
	r.text = s[:len(s)-4]
	r.size = len(s)/4*3 - pad
	return r
}

// Failf records a *binfmt.FormatError unless one is already recorded.
func (r *reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = errf(format, args...)
	}
}

func (r *reader) Err() error  { return r.err }
func (r *reader) Len() int    { return r.size - r.off }
func (r *reader) Offset() int { return r.off }

// has reports whether n more bytes can be read, failing when they cannot.
func (r *reader) has(n int) bool {
	if r.err == nil && (n < 0 || n > r.size-r.off) {
		r.Failf("truncated payload at offset %d (need %d of %d bytes)", r.off, n, r.size)
	}
	return r.err == nil
}

// Take returns the next n bytes, or nil once reading has failed.
func (r *reader) Take(n int) []byte {
	if !r.has(n) {
		return nil
	}
	if short := r.off + n - r.base - len(r.buf); short > 0 && !r.fill(short) {
		return nil
	}
	at := r.off - r.base
	r.off += n
	return r.buf[at : at+n : at+n]
}

// next returns the next k whole values of width bytes, 1 <= k <= n, as
// many as the window holds; the caller has checked that n are there.
func (r *reader) next(width, n int) []byte {
	if short := r.off + width - r.base - len(r.buf); r.err != nil || short > 0 && !r.fill(short) {
		return nil
	}
	at := r.off - r.base
	k := min(n, (len(r.buf)-at)/width) * width
	r.off += k
	return r.buf[at : at+k]
}

// fill decodes at least need more bytes into the window, and as many more
// as it has room for, after dropping the bytes read (those from keep on
// excepted). Only a text reader runs short.
func (r *reader) fill(need int) bool {
	if drop := min(r.off, r.keep) - r.base; drop > 0 {
		rest := copy(r.buf, r.buf[drop:])
		r.buf = r.buf[:rest]
		r.base += drop
	}
	if room := cap(r.buf) - len(r.buf); room < need+5 { // whole quanta and the last one
		grown := make([]byte, len(r.buf), max(2*cap(r.buf), len(r.buf)+need+5))
		copy(grown, r.buf)
		r.buf = grown
	}
	for need > 0 {
		if r.text == "" {
			if r.nl == 0 {
				r.Failf("window overrun at offset %d", r.off)
				return false
			}
			l := len(r.buf)
			r.buf = r.buf[:l+r.nl]
			copy(r.buf[l:], r.last[:r.nl])
			need -= r.nl
			r.nl = 0
			continue
		}
		l := len(r.buf)
		n, read, ok := decodeRun(r.buf[l:cap(r.buf)], r.text)
		if !ok {
			r.Failf("text is not plain base64")
			return false
		}
		r.buf = r.buf[:l+n]
		r.text = r.text[read:]
		need -= n
	}
	return true
}

// Since returns the bytes read from block offset from to here; the
// window keeps them only while keep is at or below from.
func (r *reader) Since(from int) []byte { return r.buf[from-r.base : r.off-r.base] }

// Header checks the frame a block opens with — its magic, then the
// version byte — and leaves r just past it.
func (r *reader) Header(magic string, version uint8) {
	if b := r.Take(len(magic)); b != nil && string(b) != magic {
		r.Failf("bad magic %q, want %q", string(b), magic)
	} else if v := r.U8(); r.err == nil && v != version {
		r.Failf("unsupported %s version %d", magic, v)
	}
}

// End closes the frame: a block is exactly its declared contents, so
// anything after them is a framing error. It returns the first error.
func (r *reader) End() error {
	if r.err == nil && r.off != r.size {
		r.Failf("%d trailing bytes after the block", r.size-r.off)
	}
	return r.err
}

var zeros [4]byte

func (r *reader) fixed(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (r *reader) U8() uint8   { return r.fixed(1)[0] }
func (r *reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }

// Str reads what writer.str writes.
func (r *reader) Str() string { return string(r.Take(int(r.U32()))) }
