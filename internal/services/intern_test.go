package services

import (
	"fmt"
	"testing"

	"repro/internal/arff"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/wire"
)

// TestKernelsLeaveInternedSchemaAlone: the decoders share one shape's
// *Attribute values between every dataset decoded with it, so nothing a
// service runs on a decoded dataset may change them. Every filter the
// Filter service offers, J48, RandomForest and SimpleKMeans run over
// datasets decoded from ARFF and from dmb1, and afterwards the shared
// attributes still read as they did.
func TestKernelsLeaveInternedSchemaAlone(t *testing.T) {
	src := datagen.WeatherNumeric()
	src.Instances[0].Values[1] = dataset.Missing // ReplaceMissingValues has work to do
	doc := arff.Format(src)
	block, err := wire.MarshalBase64(src)
	if err != nil {
		t.Fatal(err)
	}
	decoded := func() []*dataset.Dataset {
		a, errA := arff.ParseString(doc)
		b, errB := wire.UnmarshalBase64(block)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		return []*dataset.Dataset{a, b}
	}
	shared := decoded()
	var want []string
	for _, d := range shared {
		want = append(want, fmt.Sprint(specStrings(d)))
	}

	runs := []func(d *dataset.Dataset) error{}
	for _, name := range filterNames {
		for _, eq := range []string{"false", "true"} {
			parts := map[string]string{"filter": name, "attributes": "humidity", "equalFrequency": eq}
			runs = append(runs, func(d *dataset.Dataset) error {
				f, err := filterFromParts(parts)
				if err != nil {
					return err
				}
				_, err = f.Apply(d)
				return err
			})
		}
	}
	for _, name := range []string{"J48", "RandomForest"} {
		runs = append(runs, func(d *dataset.Dataset) error {
			c, err := classify.New(name)
			if err != nil {
				return err
			}
			if err := c.Train(d); err != nil {
				return err
			}
			_, err = classify.Label(c, d)
			return err
		})
	}
	runs = append(runs, func(d *dataset.Dataset) error {
		c, err := cluster.New("SimpleKMeans")
		if err != nil {
			return err
		}
		if err := c.Build(d); err != nil {
			return err
		}
		for _, in := range d.Instances {
			if _, err := c.Assign(in); err != nil {
				return err
			}
		}
		return nil
	})
	for i, run := range runs {
		for _, d := range decoded() {
			if err := run(d); err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		}
	}
	for i, d := range decoded() {
		if d.Attrs[0] != shared[i].Attrs[0] {
			t.Fatalf("decoder %d no longer shares the schema", i)
		}
		if got := fmt.Sprint(specStrings(shared[i])); got != want[i] {
			t.Fatalf("decoder %d: shared attributes read %s after the kernels ran, want %s", i, got, want[i])
		}
	}
}

func specStrings(d *dataset.Dataset) []string {
	out := make([]string, len(d.Attrs))
	for i, a := range d.Attrs {
		out[i] = a.SpecString()
	}
	return out
}
