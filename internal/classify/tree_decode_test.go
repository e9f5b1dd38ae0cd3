package classify

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// refNode is a node as refDecode lays it out: a split's child count held
// in the node, and first set on splits only.
type refNode struct {
	attr, first, kids, class, name, label int32
	numeric                               bool
	threshold                             float64
}

// refDecode is treeModel.decode as it was before the one-pass decoder,
// kept as the oracle FuzzTreeDecode holds the decoder to. It is verbatim
// but for returning what it decodes and for reading the counts with
// readCounts, which does what the Reader method it called did.
func refDecode(t *treeModel, r *binfmt.Reader) ([]refNode, []float64, []string) {
	k := t.classAttr.NumValues()
	floats := r.Bool()
	n := r.Count(2 + k)
	if n == 0 || r.Err() != nil {
		r.Failf("empty tree")
		return nil, nil, nil
	}
	nodes, dists, syms := make([]refNode, n), make([]float64, n*(k+1)), r.Syms()
	next := int32(1) // the first node no split has claimed
	for i := range nodes {
		nd := &nodes[i]
		if int32(i) >= next {
			r.Failf("tree node %d is unreachable", i)
			return nil, nil, nil
		}
		if nd.attr = int32(r.Int(t.width+1)) - 1; nd.attr >= 0 {
			nd.numeric = r.Bool()
			nd.name = int32(r.Int(len(syms)))
			if nd.numeric {
				nd.threshold = r.F64()
			}
			nd.first, nd.kids = next, int32(r.Int(n-int(next)+1))
			if nd.kids == 0 || (nd.numeric && nd.kids != 2) {
				r.Failf("tree node %d splits into %d children", i, nd.kids)
				return nil, nil, nil
			}
			for ; next < nd.first+nd.kids; next++ {
				nodes[next].label = int32(r.Int(len(syms)))
			}
		}
		if nd.class = int32(r.Int(k)); r.Err() != nil {
			return nil, nil, nil
		}
	}
	if int(next) != n {
		r.Failf("tree claims %d of its %d nodes", next, n)
		return nil, nil, nil
	}
	for i := 0; i < len(dists); i += k + 1 {
		if d := dists[i+1 : i+1+k]; floats {
			r.ReadF64s(d)
		} else {
			readCounts(r, d)
		}
		dists[i] = sum(dists[i+1 : i+1+k])
	}
	return nodes, dists, syms
}

func readCounts(r *binfmt.Reader, dst []float64) {
	for i := range dst {
		dst[i] = float64(r.Uvarint())
	}
}

// sectionFrame is what FuzzTreeDecode decodes: a string table as
// Writer.AppendSyms writes it, then a tree section as encode writes it.
func sectionFrame(t *treeModel) []byte {
	var w binfmt.Writer
	t.encode(&w)
	return append(w.AppendSyms(nil), w.Buf...)
}

// decodeSection decodes frame's tree section for a tree of the given
// width over k classes, with the one-pass decoder and with refDecode.
// ok is false when the string table itself does not read.
func decodeSection(frame []byte, width, k int) (got *treeModel, gotR *binfmt.Reader, ref []refNode, refDists []float64, refStrs []string, refR *binfmt.Reader, ok bool) {
	values := make([]string, k)
	for c := range values {
		values[c] = "c" + string(rune('a'+c))
	}
	class := dataset.NewNominalAttribute("class", values...)
	gotR, refR = binfmt.NewReader("model", frame), binfmt.NewReader("model", frame)
	if gotR.ReadSyms(); gotR.Err() != nil {
		return nil, nil, nil, nil, nil, nil, false
	}
	refR.ReadSyms()
	got = &treeModel{classAttr: class, width: width}
	got.decode(gotR)
	ref, refDists, refStrs = refDecode(&treeModel{classAttr: class, width: width}, refR)
	return got, gotR, ref, refDists, refStrs, refR, true
}

// checkSection fails t unless both decoders accept frame or both reject
// it with a *binfmt.FormatError, and on accepting read the same bytes into
// the same nodes, class weights (bit for bit) and strings.
func checkSection(t *testing.T, frame []byte, width, k int) (accepted bool) {
	t.Helper()
	got, gotR, ref, refDists, refStrs, refR, ok := decodeSection(frame, width, k)
	if !ok {
		return false
	}
	var fe *binfmt.FormatError
	gotErr, refErr := gotR.Err(), refR.Err()
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("decode: %v, reference decode: %v", gotErr, refErr)
	}
	if gotErr != nil {
		if !errors.As(gotErr, &fe) {
			t.Fatalf("decode failed with %T %v, want a *binfmt.FormatError", gotErr, gotErr)
		}
		return false
	}
	if gotR.Len() != refR.Len() {
		t.Fatalf("decode left %d bytes, reference decode %d", gotR.Len(), refR.Len())
	}
	if len(got.nodes) != len(ref) || !slices.Equal(got.strs, refStrs) {
		t.Fatalf("decode read %d nodes and strings %q, reference %d and %q", len(got.nodes), got.strs, len(ref), refStrs)
	}
	for i, nd := range got.nodes {
		want := ref[i]
		g := refNode{attr: nd.attr, class: nd.class, name: nd.name, label: nd.label, threshold: nd.threshold}
		if nd.attr >= 0 {
			g.first, g.kids, g.numeric = nd.first, nd.arity(), nd.numeric()
		}
		if math.Float64bits(g.threshold) != math.Float64bits(want.threshold) {
			t.Fatalf("node %d threshold %v, reference %v", i, g.threshold, want.threshold)
		}
		if g.threshold, want.threshold = 0, 0; g != want {
			t.Fatalf("node %d = %+v, reference %+v", i, g, want)
		}
	}
	if len(got.dists) != len(refDists) {
		t.Fatalf("decode read %d class weights, reference %d", len(got.dists), len(refDists))
	}
	for i := range refDists {
		if math.Float64bits(got.dists[i]) != math.Float64bits(refDists[i]) {
			t.Fatalf("class weight %d = %v, reference %v", i, got.dists[i], refDists[i])
		}
	}
	return true
}

// treeSections returns the tree sections of every registered tree model
// and tree ensemble member, trained as the model store's golden snapshots
// are: on Weather, or ContactLenses where Weather does not train.
func treeSections(tb testing.TB) (frames [][]byte, widths, ks []int) {
	for _, name := range Names() {
		c, _ := New(name)
		if c.Train(datagen.Weather()) != nil {
			c, _ = New(name)
			if err := c.Train(datagen.ContactLenses()); err != nil {
				tb.Fatalf("%s: %v", name, err)
			}
		}
		ms := []Classifier{c}
		if b, ok := c.(*Bagging); ok {
			ms = b.members
		} else if f, ok := c.(*RandomForest); ok {
			ms = f.members
		}
		for _, m := range ms {
			if h, ok := m.(treeHolder); ok {
				t := h.tree()
				frames, widths, ks = append(frames, sectionFrame(t)), append(widths, t.width), append(ks, t.classAttr.NumValues())
			}
		}
	}
	return frames, widths, ks
}

// FuzzTreeDecode holds the one-pass tree decoder to refDecode: both
// accept the same inputs, reject the rest with a *binfmt.FormatError, and
// read the same bytes into the same tree.
func FuzzTreeDecode(f *testing.F) {
	frames, widths, ks := treeSections(f)
	for i, b := range frames {
		f.Add(b, uint8(widths[i]), uint8(ks[i]))
		f.Add(b[:len(b)/2], uint8(widths[i]), uint8(ks[i]))
		f.Add(b[:len(b)-1], uint8(widths[i]), uint8(ks[i]))
	}
	f.Fuzz(func(t *testing.T, frame []byte, width, k uint8) {
		checkSection(t, frame, int(width), int(k%16))
	})
}

// TestTreeSectionsDecode: every seed FuzzTreeDecode starts from decodes,
// as the reference decodes it.
func TestTreeSectionsDecode(t *testing.T) {
	frames, widths, ks := treeSections(t)
	if len(frames) == 0 {
		t.Fatal("no tree sections")
	}
	for i, b := range frames {
		if !checkSection(t, b, widths[i], ks[i]) {
			t.Fatalf("section %d does not decode", i)
		}
	}
}

// TestMalformedTreeSections: each hand-built bad section is rejected with
// a *binfmt.FormatError, as the reference decoder rejects it. Every
// section is over the string table {"a", "x", "y"}, for a tree of width 2
// over 2 classes; the valid one is a split on column 0 into two leaves.
func TestMalformedTreeSections(t *testing.T) {
	table := []byte{3, 1, 1, 1, 'a', 'x', 'y'}
	threshold := []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f} // 1.0
	cat := func(parts ...[]byte) []byte { return slices.Concat(append([][]byte{table}, parts...)...) }
	counts := []byte{1, 0, 1, 0, 0, 1}
	valid := cat([]byte{0, 3, 1, 0, 0, 2, 1, 2, 0, 0, 0, 0, 1}, counts)
	if !checkSection(t, valid, 2, 2) {
		t.Fatal("the valid section does not decode")
	}
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"unreachable node", cat([]byte{0, 3, 0, 0, 0, 0, 0, 1}, counts)},
		{"zero-child split", cat([]byte{0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 1}, counts)},
		{"numeric split into 3", cat([]byte{0, 4, 1, 1, 0}, threshold, []byte{3, 1, 2, 1, 0, 0, 0, 0, 0, 1, 0, 1}, counts, []byte{1, 0})},
		{"attribute past the width", cat([]byte{0, 3, 3, 0, 0, 2, 1, 2, 0, 0, 0, 0, 1}, counts)},
		{"class past the classes", cat([]byte{0, 3, 1, 0, 0, 2, 1, 2, 0, 0, 2, 0, 1}, counts)},
		{"label past the string table", cat([]byte{0, 3, 1, 0, 0, 2, 1, 3, 0, 0, 0, 0, 1}, counts)},
		{"truncated threshold", cat([]byte{0, 2, 1, 1, 0}, threshold[:5])},
		{"11-byte uvarint field", cat([]byte{0, 3}, bytes.Repeat([]byte{0x80}, 10), []byte{0, 0})},
		{"11-byte uvarint count", cat([]byte{0, 3, 1, 0, 0, 2, 1, 2, 0, 0, 0, 0, 1}, bytes.Repeat([]byte{0x80}, 10), []byte{0}, counts[1:])},
		{"truncated counts", cat([]byte{0, 3, 1, 0, 0, 2, 1, 2, 0, 0, 0, 0, 1}, counts[:5])},
	} {
		t.Run(c.name, func(t *testing.T) {
			if checkSection(t, c.frame, 2, 2) {
				t.Fatal("decoded")
			}
		})
	}
}
