package wire

import (
	"encoding/base64"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// bulkShape is classify_bulk's traffic: a 4096-row x 11-attribute nominal
// block, row-backed through a permuted view the way the client
// materialises it, and the 4-class DMR1 reply scored from it.
func bulkShape(tb testing.TB) (*dataset.Dataset, *Result) {
	tb.Helper()
	pool := datagen.RandomNominal(4096, 10, 4, 0.2, 2)
	d := dataset.NewView(pool, rand.New(rand.NewSource(101)).Perm(pool.NumInstances())).Materialize()
	rng := rand.New(rand.NewSource(3))
	classes := d.ClassAttribute().Values()
	res := &Result{Classes: classes, Labels: make([]int, d.NumInstances()), Distributions: make([][]float64, len(classes))}
	for c := range res.Distributions {
		res.Distributions[c] = make([]float64, d.NumInstances())
	}
	for i := range res.Labels {
		res.Labels[i] = rng.Intn(len(classes))
		for c := range classes {
			res.Distributions[c][i] = rng.Float64()
		}
	}
	return d, res
}

// BenchmarkBulkBase64 times the four bulk-path conversions between data
// and base64 text at classify_bulk's shape; each decode runs beside the
// two-pass encoding/base64 equivalent (std), so one command gives the
// ratio. Bytes are the block's binary size.
func BenchmarkBulkBase64(b *testing.B) {
	d, res := bulkShape(b)
	block, err := raw(MarshalBase64(d))
	if err != nil {
		b.Fatal(err)
	}
	reply, err := raw(MarshalResultBase64(res))
	if err != nil {
		b.Fatal(err)
	}
	payload, replyText := base64.StdEncoding.EncodeToString(block), base64.StdEncoding.EncodeToString(reply)
	cases := []struct {
		name       string
		bytes      int
		fused, std func() error
	}{
		{"marshal", len(block),
			func() error { _, err := MarshalBase64(d); return err }, nil},
		{"unmarshal", len(block),
			func() error { _, err := UnmarshalBase64(payload); return err },
			func() error {
				b, err := base64.StdEncoding.DecodeString(payload)
				if err == nil {
					_, err = Unmarshal(b)
				}
				return err
			}},
		{"result_marshal", len(reply),
			func() error { _, err := MarshalResultBase64(res); return err }, nil},
		{"result_unmarshal", len(reply),
			func() error { _, err := UnmarshalResultBase64(replyText); return err },
			func() error {
				b, err := base64.StdEncoding.DecodeString(replyText)
				if err == nil {
					_, err = UnmarshalResult(b)
				}
				return err
			}},
	}
	for _, c := range cases {
		for _, side := range []struct {
			name string
			run  func() error
		}{{"fused", c.fused}, {"std", c.std}} {
			if side.run == nil {
				continue
			}
			b.Run(c.name+"/"+side.name, func(b *testing.B) {
				b.SetBytes(int64(c.bytes))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := side.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
