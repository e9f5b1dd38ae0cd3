package classify

import (
	"math"
	"slices"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// encodeBody and decodeBody are the snapshot codec without model's outer
// frame: the body plus the string table it refers to.
func encodeBody(t *testing.T, c Classifier) []byte {
	t.Helper()
	var w binfmt.Writer
	if c.(snapshotter).Snapshot(binfmt.Codec{W: &w}); w.Err() != nil {
		t.Fatalf("encode %s: %v", c.Name(), w.Err())
	}
	return append(w.AppendSyms(nil), w.Buf...)
}

func decodeBody(tag string, b []byte) (Classifier, error) {
	r := binfmt.NewReader("model", b)
	r.ReadSyms()
	c, err := New(tag)
	if err != nil {
		return nil, err
	}
	c.(snapshotter).Snapshot(binfmt.Codec{R: r})
	return c, r.End()
}

// roundTrip serialises and restores a classifier through its snapshot
// body, the "serialised state on disk" representation of §4.5. (The
// tests below are named after the codec that preceded this one.)
func roundTrip(t *testing.T, c Classifier) Classifier {
	t.Helper()
	got, err := decodeBody(c.Name(), encodeBody(t, c))
	if err != nil {
		t.Fatalf("decode %s: %v", c.Name(), err)
	}
	return got
}

func TestJ48GobRoundTrip(t *testing.T) {
	d := datagen.BreastCancer()
	j := NewJ48()
	if err := j.Train(d); err != nil {
		t.Fatal(err)
	}
	j2 := roundTrip(t, j).(*J48)
	if j2.Tree() == nil || j2.Tree().AttrName != j.Tree().AttrName {
		t.Fatal("tree lost in round trip")
	}
	for _, in := range d.Instances[:50] {
		a, err := Predict(j, in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Predict(j2, in)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatal("predictions diverge after round trip")
		}
	}
	if j2.String() != j.String() {
		t.Fatal("textual tree differs after round trip")
	}
}

func TestNaiveBayesGobRoundTrip(t *testing.T) {
	d := datagen.WeatherNumeric()
	nb := &NaiveBayes{}
	if err := nb.Train(d); err != nil {
		t.Fatal(err)
	}
	nb2 := roundTrip(t, nb).(*NaiveBayes)
	for _, in := range d.Instances {
		a, _ := nb.Distribution(in)
		b, _ := nb2.Distribution(in)
		for i := range a {
			if diff := a[i] - b[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("distribution diverges: %v vs %v", a, b)
			}
		}
	}
}

func TestZeroRGobRoundTrip(t *testing.T) {
	d := datagen.Weather()
	z := &zeroR{}
	if err := z.Train(d); err != nil {
		t.Fatal(err)
	}
	z2 := roundTrip(t, z).(*zeroR)
	a, _ := z.Distribution(d.Instances[0])
	b, _ := z2.Distribution(d.Instances[0])
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("prior lost: %v vs %v", a, b)
	}
}

func TestOneRGobRoundTrip(t *testing.T) {
	d := datagen.WeatherNumeric()
	o := &oneR{}
	if err := o.SetOption("minBucket", "3"); err != nil {
		t.Fatal(err)
	}
	if err := o.Train(d); err != nil {
		t.Fatal(err)
	}
	o2 := roundTrip(t, o).(*oneR)
	for _, in := range d.Instances {
		a, _ := Predict(o, in)
		b, _ := Predict(o2, in)
		if a != b {
			t.Fatal("OneR predictions diverge after round trip")
		}
	}
	if o2.attr != o.attr {
		t.Fatal("selected attribute lost")
	}
}

func TestIBkGobRoundTrip(t *testing.T) {
	d := datagen.WeatherNumeric()
	k := &IBk{K: 3, DistanceWeight: true}
	if err := k.Train(d); err != nil {
		t.Fatal(err)
	}
	k2 := roundTrip(t, k).(*IBk)
	if len(k2.cls) != len(k.cls) {
		t.Fatalf("case base %d -> %d", len(k.cls), len(k2.cls))
	}
	for _, in := range d.Instances {
		a, _ := Predict(k, in)
		b, _ := Predict(k2, in)
		if a != b {
			t.Fatal("IBk predictions diverge after round trip")
		}
	}
}

// TestIBkGobDecodeRejectsMalformed: a snapshot whose case base cannot be
// laid out over its schema is an error at decode, not a panic at scoring.
func TestIBkGobDecodeRejectsMalformed(t *testing.T) {
	d := datagen.WeatherNumeric()
	for name, corrupt := range map[string]func(*IBk){
		"none":           func(*IBk) {},
		"short cases":    func(k *IBk) { k.cases = k.cases[:len(k.cases)-1] },
		"class range":    func(k *IBk) { k.cases[d.ClassIndex] = 7 },
		"infinite class": func(k *IBk) { k.cases[d.ClassIndex] = math.Inf(1) },
		"weights":        func(k *IBk) { k.weights = k.weights[1:] },
		"class index":    func(k *IBk) { k.schema = d.ShallowWith(nil); k.schema.ClassIndex = 1 },
	} {
		k := &IBk{K: 1}
		if err := k.Train(d); err != nil {
			t.Fatal(err)
		}
		corrupt(k)
		_, err := decodeBody("IBk", encodeBody(t, k))
		if (err == nil) != (name == "none") {
			t.Errorf("%s: decode error = %v", name, err)
		}
	}
}

func TestPrismGobRoundTrip(t *testing.T) {
	d := datagen.ContactLenses()
	p := &prism{}
	if err := p.Train(d); err != nil {
		t.Fatal(err)
	}
	p2 := roundTrip(t, p).(*prism)
	if len(p2.rules) != len(p.rules) {
		t.Fatalf("rules %d -> %d", len(p.rules), len(p2.rules))
	}
	if p2.String() != p.String() {
		t.Fatal("rule list differs after round trip")
	}
	for _, in := range d.Instances {
		a, _ := Predict(p, in)
		b, _ := Predict(p2, in)
		if a != b {
			t.Fatal("Prism predictions diverge after round trip")
		}
	}
}

// TestCodeAttrSharesOnlyWhatMatches decodes an attribute into an existing
// one, as a forest member's class attribute is read into the forest's. The
// existing attribute is kept when the bytes declare the same one; from the
// first difference on, a fresh attribute is built from the bytes and the
// existing one is left as it was.
func TestCodeAttrSharesOnlyWhatMatches(t *testing.T) {
	decode := func(t *testing.T, into, from *dataset.Attribute) *dataset.Attribute {
		t.Helper()
		var w binfmt.Writer
		codeAttr(binfmt.Codec{W: &w}, &from)
		r := binfmt.NewReader("model", append(w.AppendSyms(nil), w.Buf...))
		r.ReadSyms()
		got := into
		codeAttr(binfmt.Codec{R: r}, &got)
		if err := r.End(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	class := func(vals ...string) *dataset.Attribute { return dataset.NewNominalAttribute("class", vals...) }
	for _, tc := range []struct {
		name     string
		into     *dataset.Attribute
		from     *dataset.Attribute
		wantKept bool
	}{
		{"same", class("a", "b", "c"), class("a", "b", "c"), true},
		{"first value differs", class("a", "b", "c"), class("x", "b", "c"), false},
		{"last value differs", class("a", "b", "c"), class("a", "b", "x"), false},
		{"more values", class("a", "b"), class("a", "b", "c"), false},
		{"other name", class("a", "b"), dataset.NewNominalAttribute("label", "a", "b"), false},
		{"into nil", nil, class("a", "b"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before []string
			if tc.into != nil {
				before = slices.Clone(tc.into.Values())
			}
			got := decode(t, tc.into, tc.from)
			if kept := got == tc.into; kept != tc.wantKept {
				t.Fatalf("kept the existing attribute: %v, want %v", kept, tc.wantKept)
			}
			if got.Name != tc.from.Name || got.Kind != tc.from.Kind || !slices.Equal(got.Values(), tc.from.Values()) {
				t.Fatalf("decoded %s %v %v, want %s %v %v",
					got.Name, got.Kind, got.Values(), tc.from.Name, tc.from.Kind, tc.from.Values())
			}
			if tc.into != nil && !slices.Equal(tc.into.Values(), before) {
				t.Fatalf("existing attribute changed to %v, was %v", tc.into.Values(), before)
			}
		})
	}
}
