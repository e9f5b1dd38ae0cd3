package stream

import (
	"io"
	"strings"
	"testing"

	"repro/internal/arff"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/datagen"
)

func TestReaderParsesIncrementally(t *testing.T) {
	d := datagen.Weather()
	text := arff.Format(d)
	r, err := newReader(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema().NumAttributes() != 5 {
		t.Fatalf("schema attrs = %d", r.Schema().NumAttributes())
	}
	n := 0
	for {
		in, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Values) != 5 {
			t.Fatalf("instance width %d", len(in.Values))
		}
		n++
	}
	if n != 14 {
		t.Fatalf("streamed %d instances", n)
	}
	// The reader must not accumulate instances (it's a stream).
	if r.Schema().NumInstances() != 0 {
		t.Fatalf("reader retained %d instances", r.Schema().NumInstances())
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := newReader(strings.NewReader("@relation r\n@attribute x numeric\n")); err == nil {
		t.Fatal("header without @data accepted")
	}
	r, err := newReader(strings.NewReader("@relation r\n@attribute x numeric\n@data\nnotanumber\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("malformed row accepted")
	}
}

// TestStreamingLearner is experiment E12: remote data streamed over TCP
// into incremental learners processing locally (§1, §3).
func TestStreamingLearner(t *testing.T) {
	d := datagen.BreastCancer()
	ln, err := Listen("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	r, closer, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	nb := &classify.NaiveBayes{}
	if err := nb.Begin(r.Schema()); err != nil {
		t.Fatal(err)
	}
	n, err := Feed(r, nb)
	if err != nil {
		t.Fatal(err)
	}
	if n != 286 {
		t.Fatalf("streamed %d instances", n)
	}
	// The streamed model must match batch training.
	batch := &classify.NaiveBayes{}
	if err := batch.Train(d); err != nil {
		t.Fatal(err)
	}
	for _, in := range d.Instances[:30] {
		a, _ := classify.Predict(nb, in)
		b, _ := classify.Predict(batch, in)
		if a != b {
			t.Fatal("streamed model diverges from batch model")
		}
	}
}

func TestStreamingCobweb(t *testing.T) {
	d := datagen.Weather()
	ln, err := Listen("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	r, closer, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	cw := &cluster.Cobweb{Acuity: 1, Cutoff: 0.0028}
	if err := cw.Begin(r.Schema()); err != nil {
		t.Fatal(err)
	}
	n, err := Feed(r, cw)
	if err != nil {
		t.Fatal(err)
	}
	if n != 14 || cw.Root().Count != 14 {
		t.Fatalf("streamed %d, root count %v", n, cw.Root().Count)
	}
}

func TestMultipleConcurrentConsumers(t *testing.T) {
	d := datagen.Weather()
	ln, err := Listen("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			r, closer, err := Dial(ln.Addr().String())
			if err != nil {
				done <- -1
				return
			}
			defer closer.Close()
			n := 0
			for {
				if _, err := r.Next(); err != nil {
					break
				}
				n++
			}
			done <- n
		}()
	}
	for i := 0; i < 3; i++ {
		if n := <-done; n != 14 {
			t.Fatalf("consumer got %d instances", n)
		}
	}
}

func TestServeRoundTrip(t *testing.T) {
	d := datagen.WeatherNumeric()
	var b strings.Builder
	if err := serve(&b, d); err != nil {
		t.Fatal(err)
	}
	r, err := newReader(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		in, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Spot-check a numeric value.
		if count == 0 && in.Values[1] != 85 {
			t.Fatalf("first temperature = %v", in.Values[1])
		}
		count++
	}
	if count != 14 {
		t.Fatalf("round-tripped %d instances", count)
	}
}
