package classify

import (
	"math"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/datagen"
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
	z := &ZeroR{}
	if err := z.Train(d); err != nil {
		t.Fatal(err)
	}
	z2 := roundTrip(t, z).(*ZeroR)
	a, _ := z.Distribution(d.Instances[0])
	b, _ := z2.Distribution(d.Instances[0])
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("prior lost: %v vs %v", a, b)
	}
}

func TestOneRGobRoundTrip(t *testing.T) {
	d := datagen.WeatherNumeric()
	o := &OneR{}
	if err := o.SetOption("minBucket", "3"); err != nil {
		t.Fatal(err)
	}
	if err := o.Train(d); err != nil {
		t.Fatal(err)
	}
	o2 := roundTrip(t, o).(*OneR)
	for _, in := range d.Instances {
		a, _ := Predict(o, in)
		b, _ := Predict(o2, in)
		if a != b {
			t.Fatal("OneR predictions diverge after round trip")
		}
	}
	if o2.Attribute() != o.Attribute() {
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
	if k2.NumCases() != k.NumCases() {
		t.Fatalf("case base %d -> %d", k.NumCases(), k2.NumCases())
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
	p := &Prism{}
	if err := p.Train(d); err != nil {
		t.Fatal(err)
	}
	p2 := roundTrip(t, p).(*Prism)
	if p2.NumRules() != p.NumRules() {
		t.Fatalf("rules %d -> %d", p.NumRules(), p2.NumRules())
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
