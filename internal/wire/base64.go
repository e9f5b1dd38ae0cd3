package wire

import (
	"encoding/binary"
	"strconv"
)

// The base64 half of the block codec: the standard alphabet with padding,
// written byte for byte as encoding/base64.StdEncoding writes it and read
// accepting exactly what it accepts — CR and LF are skipped anywhere, the
// final quantum may be padded, and non-zero bits below the last byte are
// ignored. The encoder works 6 bytes to 8 characters at a time through a
// 12-bit pair table; the fast decoder works 8 characters to 6 bytes at a
// time through four 256-entry tables, one per position in a quantum, and
// hands anything that is not plain alphabet text to decode64.

const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

var (
	// pairs maps 12 bits to the two characters that encode them, the
	// first in the low byte.
	pairs [1 << 12]uint16
	// quad[k] maps a character to its 6 bits placed for position k of a
	// 4-character quantum, or to notAlphabet, which survives any OR.
	quad [4][256]uint32
)

const notAlphabet = 0xff000000

func init() {
	for i := range pairs {
		pairs[i] = uint16(alphabet[i>>6]) | uint16(alphabet[i&63])<<8
	}
	for k := range quad {
		for c := range quad[k] {
			quad[k][c] = notAlphabet
		}
		for v := 0; v < len(alphabet); v++ {
			quad[k][alphabet[v]] = uint32(v) << (18 - 6*k)
		}
	}
}

// encodedLen is the length of the padded base64 text of n bytes.
func encodedLen(n int) int { return (n + 2) / 3 * 4 }

// encode64 writes the base64 text of src, padded, to the first
// encodedLen(len(src)) bytes of dst.
func encode64(dst, src []byte) {
	i, j := 0, 0
	for ; len(src)-i >= 8; i, j = i+6, j+8 { // an 8-byte load, 6 of them encoded
		x := binary.BigEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[j:], uint64(pairs[x>>52])|uint64(pairs[x>>40&0xfff])<<16|
			uint64(pairs[x>>28&0xfff])<<32|uint64(pairs[x>>16&0xfff])<<48)
	}
	for ; len(src)-i >= 3; i, j = i+3, j+4 {
		x := uint(src[i])<<16 | uint(src[i+1])<<8 | uint(src[i+2])
		binary.LittleEndian.PutUint32(dst[j:], uint32(pairs[x>>12])|uint32(pairs[x&0xfff])<<16)
	}
	switch len(src) - i {
	case 1:
		x := uint(src[i]) << 4
		binary.LittleEndian.PutUint32(dst[j:], uint32(pairs[x])|'='<<16|'='<<24)
	case 2:
		x := uint(src[i])<<10 | uint(src[i+1])<<2
		binary.LittleEndian.PutUint32(dst[j:], uint32(pairs[x>>6])|uint32(alphabet[x&63])<<16|'='<<24)
	}
}

// decodeRun decodes whole quanta of alphabet-only text into dst while
// both have room, and reports the bytes written and characters read; ok
// is false when it stopped at a character outside the alphabet (a pad,
// a line break or garbage), which decode64 must judge.
func decodeRun(dst []byte, src string) (n, read int, ok bool) {
	for len(dst)-n >= 8 && len(src)-read >= 8 {
		s := src[read : read+8]
		a := quad[0][s[0]] | quad[1][s[1]] | quad[2][s[2]] | quad[3][s[3]]
		b := quad[0][s[4]] | quad[1][s[5]] | quad[2][s[6]] | quad[3][s[7]]
		if (a|b)&notAlphabet != 0 {
			return n, read, false
		}
		binary.BigEndian.PutUint64(dst[n:], uint64(a)<<40|uint64(b)<<16)
		n, read = n+6, read+8
	}
	for len(dst)-n >= 3 && len(src)-read >= 4 {
		s := src[read : read+4]
		a := quad[0][s[0]] | quad[1][s[1]] | quad[2][s[2]] | quad[3][s[3]]
		if a&notAlphabet != 0 {
			return n, read, false
		}
		dst[n], dst[n+1], dst[n+2] = byte(a>>16), byte(a>>8), byte(a)
		n, read = n+3, read+4
	}
	return n, read, true
}

// corruptInput is encoding/base64's CorruptInputError, text included.
type corruptInput int

func (e corruptInput) Error() string {
	return "illegal base64 data at input byte " + strconv.Itoa(int(e))
}

// decode64 decodes s as encoding/base64.StdEncoding.DecodeString does,
// with the same error at the same offset: plain text goes through
// decodeRun, and each quantum it stops at is decoded one character at a
// time under the standard rules.
func decode64(s string) ([]byte, error) {
	dst := make([]byte, len(s)/4*3+3)
	n, si := 0, 0
	for {
		m, read, _ := decodeRun(dst[n:], s[si:])
		n, si = n+m, si+read
		if si == len(s) {
			return dst[:n], nil
		}
		var q [4]uint32
		j := 0
		for j < 4 {
			if si == len(s) {
				if j == 0 {
					return dst[:n], nil
				}
				return nil, corruptInput(si - j)
			}
			c := s[si]
			si++
			if v := quad[3][c]; v != notAlphabet {
				q[j] = v
				j++
				continue
			}
			if c == '\n' || c == '\r' {
				continue
			}
			if c != '=' || j < 2 {
				return nil, corruptInput(si - 1)
			}
			if j == 2 { // a second pad must follow, line breaks aside
				si = skipBreaks(s, si)
				if si == len(s) {
					return nil, corruptInput(len(s))
				}
				if s[si] != '=' {
					return nil, corruptInput(si - 1)
				}
				si++
			}
			if si = skipBreaks(s, si); si < len(s) {
				return nil, corruptInput(si)
			}
			break
		}
		v := q[0]<<18 | q[1]<<12 | q[2]<<6 | q[3]
		n += copy(dst[n:], []byte{byte(v >> 16), byte(v >> 8), byte(v)}[:j-1])
		if j < 4 {
			return dst[:n], nil
		}
	}
}

func skipBreaks(s string, i int) int {
	for i < len(s) && (s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}
