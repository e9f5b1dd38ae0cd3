package wire

import (
	"encoding/base64"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// encoding/base64 is the oracle the codec is held to: the fused
// *Base64 functions must give exactly what its two passes give — the
// same text out, the same value or the same error in.

// codec is one block kind's three exported conversions, and the raw
// encoding the oracle derives from its text, typed as any so that one
// table drives them all.
type codec struct {
	magic, what string
	fromText    func(string) (any, error)
	fromBytes   func([]byte) (any, error)
	toText      func(any) (string, error)
	toBytes     func(any) ([]byte, error)
	floats      func(any) [][]float64 // every float64 the value holds
}

func codecOf[T any](magic, what string, fromText func(string) (*T, error), fromBytes func([]byte) (*T, error),
	toText func(*T) (string, error), floats func(*T) [][]float64) codec {
	return codec{magic, what,
		func(s string) (any, error) { return fromText(s) },
		func(b []byte) (any, error) { return fromBytes(b) },
		func(v any) (string, error) { return toText(v.(*T)) },
		func(v any) ([]byte, error) { return raw(toText(v.(*T))) },
		func(v any) [][]float64 { return floats(v.(*T)) },
	}
}

var codecs = []codec{
	codecOf(magicDataset, "payload", UnmarshalBase64, Unmarshal, MarshalBase64, datasetFloats),
	codecOf(magicResult, "result", UnmarshalResultBase64, UnmarshalResult, MarshalResultBase64,
		func(r *Result) [][]float64 { return r.Distributions }),
	codecOf(magicCluster, "cluster result", UnmarshalClusterResultBase64, UnmarshalClusterResult,
		MarshalClusterResultBase64, func(r *ClusterResult) [][]float64 { return r.Scores }),
	codecOf(magicRegress, "regression result", UnmarshalRegressResultBase64, UnmarshalRegressResult,
		MarshalRegressResultBase64, func(r *RegressResult) [][]float64 { return [][]float64{r.Values} }),
}

func datasetFloats(d *dataset.Dataset) [][]float64 {
	cols := append([][]float64(nil), d.Columns()...)
	if d.NumInstances() > 0 {
		cols = append(cols, d.WeightsSlice())
	}
	return cols
}

// twoPass is the oracle: encoding/base64, then the raw block decoder.
func (c codec) twoPass(text string) (any, error) {
	b, err := base64.StdEncoding.DecodeString(text)
	if err != nil {
		return nil, errf("%s is not valid base64: %v", c.what, err)
	}
	return c.fromBytes(b)
}

// sameOutcome fails t unless the fused decode of text is the two-pass
// decode: the same error text, or values that re-encode to the same
// block and hold the same float64 bits.
func (c codec) sameOutcome(t *testing.T, text string) {
	t.Helper()
	got, gotErr := c.fromText(text)
	want, wantErr := c.twoPass(text)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s %q: fused err %v, two-pass err %v", c.magic, text, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	gotBlock, err1 := c.toBytes(got)
	wantBlock, err2 := c.toBytes(want)
	if err1 != nil || err2 != nil || string(gotBlock) != string(wantBlock) {
		t.Fatalf("%s %q: fused and two-pass values differ (%v, %v)", c.magic, text, err1, err2)
	}
	gf, wf := c.floats(got), c.floats(want)
	for j := range wf {
		for i := range wf[j] {
			if math.Float64bits(gf[j][i]) != math.Float64bits(wf[j][i]) {
				t.Fatalf("%s %q: value (%d,%d) is %x fused, %x two-pass", c.magic, text, j, i,
					math.Float64bits(gf[j][i]), math.Float64bits(wf[j][i]))
			}
		}
	}
	// And back: the fused encoder writes what encoding/base64 writes.
	if again, err := c.toText(got); err != nil || again != base64.StdEncoding.EncodeToString(gotBlock) {
		t.Fatalf("%s: fused text differs from encoding/base64's (err %v)", c.magic, err)
	}
}

func parentText(magic string) string {
	for _, k := range blockKinds {
		if k.magic == magic {
			return k.parent
		}
	}
	panic(magic)
}

// TestBase64MatchesStd is the differential table: decode64 and every
// kind's fused decoder against encoding/base64 on well-formed text, the
// characters the standard alphabet does not have, line breaks, padding
// and truncation.
func TestBase64MatchesStd(t *testing.T) {
	dmv1 := parentText(magicRegress) // 56 characters, no padding
	dmr1 := parentText(magicResult)  // ends in one pad
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"padded one", "ZGFua29nYWk="},
		{"padded two", "ZGFua29nYQ=="},
		{"unpadded", "ZGFua29nYWk"},
		{"unpadded two", "ZGFua29nYQ"},
		{"std alphabet", "5bCP6aO85by+"},
		{"url alphabet", "5bCP6aO85by-"},
		{"url underscore", "5bCP6aO85by_"},
		{"space", "ZGFu a29nYWk="},
		{"tab", "ZGFu\ta29nYWk="},
		{"NUL", "ZGFu\x00a29nYWk="},
		{"high byte", "ZGFu\xffa29nYWk="},
		{"crlf", "ZGFu\r\na29nYWk=\r\n"},
		{"break between pads", "ZGFua29nYQ=\n="},
		{"break before pads", "ZGFua29nYQ\r\n=="},
		{"pad then data", "ZGFu=a29nYWk="},
		{"one pad where two belong", "ZGFua29nYQ="},
		{"three pads", "ZGFua29nY==="},
		{"data after pad", "ZGFua29nYWk=QQ=="},
		{"only pads", "===="},
		{"lone char", "Q"},
		{"non-zero trailing bits", "QR=="},
		{"dmv1", dmv1},
		{"dmr1", dmr1},
		{"dmr1 unpadded", strings.TrimRight(dmr1, "=")},
	}
	for i := 0; i <= len(dmv1); i++ {
		for _, brk := range []string{"\r", "\n", "\r\n", " ", "="} {
			cases = append(cases, struct{ name, text string }{fmt.Sprintf("%q at %d", brk, i), dmv1[:i] + brk + dmv1[i:]})
		}
		cases = append(cases, struct{ name, text string }{fmt.Sprintf("url char at %d", i), dmv1[:i] + "-" + dmv1[min(i+1, len(dmv1)):]})
	}
	for n := 0; n <= 40; n++ {
		cases = append(cases, struct{ name, text string }{fmt.Sprintf("truncated to %d", n), dmv1[:n]},
			struct{ name, text string }{fmt.Sprintf("dmr1 truncated to %d", n), dmr1[len(dmr1)-40+n:]})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, gotErr := decode64(tc.text)
			want, wantErr := base64.StdEncoding.DecodeString(tc.text)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("decode64(%q) err %v, encoding/base64 %v", tc.text, gotErr, wantErr)
			}
			if gotErr == nil && string(got) != string(want) {
				t.Fatalf("decode64(%q) = %x, encoding/base64 %x", tc.text, got, want)
			}
			for _, c := range codecs {
				c.sameOutcome(t, tc.text)
			}
		})
	}
}

// TestEncode64MatchesStd holds the encoder to encoding/base64 on every
// length across a few 6-byte groups, so each tail case is covered.
func TestEncode64MatchesStd(t *testing.T) {
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i*37 + 11)
	}
	for n := range src {
		dst := make([]byte, encodedLen(n))
		encode64(dst, src[:n])
		if want := base64.StdEncoding.EncodeToString(src[:n]); string(dst) != want {
			t.Fatalf("encode64 of %d bytes = %q, want %q", n, dst, want)
		}
	}
}

// FuzzBase64Block: on any text, every kind's fused decoder ends as the
// two-pass codec does, and what it accepts re-encodes to encoding/base64's
// text. The seeds are the parent blocks, whole and with a line break.
func FuzzBase64Block(f *testing.F) {
	for i, k := range blockKinds {
		f.Add(uint8(i), k.parent)
		f.Add(uint8(i), k.parent[:len(k.parent)/2]+"\r\n"+k.parent[len(k.parent)/2:])
	}
	f.Fuzz(func(t *testing.T, kind uint8, text string) {
		codecs[int(kind)%len(codecs)].sameOutcome(t, text)
	})
}
