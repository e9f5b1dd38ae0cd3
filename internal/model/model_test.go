package model

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

func trainedJ48(t *testing.T) *classify.J48 {
	t.Helper()
	j := classify.NewJ48()
	if err := j.Train(datagen.BreastCancer()); err != nil {
		t.Fatal(err)
	}
	return j
}

func TestMarshalUnmarshalPreservesBehaviour(t *testing.T) {
	j := trainedJ48(t)
	b, err := Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	j2, ok := c.(*classify.J48)
	if !ok {
		t.Fatalf("unmarshal returned %T", c)
	}
	d := datagen.BreastCancer()
	for _, in := range d.Instances {
		a, _ := classify.Predict(j, in)
		b2, _ := classify.Predict(j2, in)
		if a != b2 {
			t.Fatal("behaviour changed through serialisation")
		}
	}
}

func columnBacked(t testing.TB, d *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	cd, err := dataset.FromColumns(d.Relation, d.Attrs, d.ClassIndex, d.Columns(), d.WeightsSlice())
	if err != nil {
		t.Fatal(err)
	}
	return cd
}

// TestMarshalAllRegisteredAlgorithms is the store's coverage contract:
// every classifier the service registry can train must survive a
// marshal/unmarshal round trip with every distribution bit intact, on
// row-backed and column-backed input, with its textual model unchanged and
// its bytes reproduced by re-marshalling — otherwise a replica restoring
// that snapshot would silently misbehave. The sets are nominal, numeric,
// missing-valued and multi-class.
func TestMarshalAllRegisteredAlgorithms(t *testing.T) {
	sets := map[string]*dataset.Dataset{
		"Weather":        datagen.Weather(),
		"WeatherNumeric": datagen.WeatherNumeric(),
		"BreastCancer":   datagen.BreastCancer(),
		"IrisLike":       datagen.IrisLike(30, 7),
	}
	for _, name := range classify.Names() {
		t.Run(name, func(t *testing.T) {
			trained := 0
			for set, d := range sets {
				c, err := classify.New(name)
				if err != nil {
					t.Fatal(err)
				}
				if c.Train(d) != nil {
					continue // Prism trains on nominal attributes only
				}
				trained++
				b, err := Marshal(c)
				if err != nil {
					t.Fatal(err)
				}
				c2, err := Unmarshal(b)
				if err != nil {
					t.Fatalf("%s: %v", set, err)
				}
				if c2.Name() != c.Name() {
					t.Fatalf("round trip changed type: %s -> %s", c.Name(), c2.Name())
				}
				if again, err := Marshal(c2); err != nil || !bytes.Equal(again, b) {
					t.Fatalf("%s: re-marshalling the restored model changed its bytes (err %v)", set, err)
				}
				if s, ok := c.(fmt.Stringer); ok && s.String() != c2.(fmt.Stringer).String() {
					t.Fatalf("%s: textual model changed:\n%s\n---\n%s", set, s, c2)
				}
				for backing, in := range map[string]*dataset.Dataset{"rows": d, "columns": columnBacked(t, d)} {
					for i, x := range in.Instances {
						want, err := c.Distribution(x)
						if err != nil {
							t.Fatal(err)
						}
						got, err := c2.Distribution(x)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%s/%s row %d: %d classes, want %d", set, backing, i, len(got), len(want))
						}
						for cl := range want {
							if math.Float64bits(got[cl]) != math.Float64bits(want[cl]) {
								t.Fatalf("%s/%s row %d class %d: %v, live model %v", set, backing, i, cl, got[cl], want[cl])
							}
						}
					}
				}
			}
			if trained == 0 {
				t.Fatal("trained on none of the sets")
			}
		})
	}
}

// TestRestoredForestRetrainsWithRandomTrees: a snapshot restores through
// the registry factory, so a restored RandomForest keeps its RandomTree
// base learner and retrains exactly like a fresh one.
func TestRestoredForestRetrainsWithRandomTrees(t *testing.T) {
	d := datagen.RandomNominal(200, 6, 3, 0.2, 5)
	fresh, _ := classify.New("RandomForest")
	if err := fresh.Train(d); err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Train(d); err != nil {
		t.Fatal(err)
	}
	if again, _ := Marshal(restored); !bytes.Equal(again, b) {
		t.Fatal("restored forest retrained into a different model")
	}
}

// goldenSnapshots are SHA-256 digests of the snapshot each algorithm
// writes for a model trained on Weather (ContactLenses where Weather does
// not train) or, for clusterers, fitted on GaussianClusters(3, 60, 4, 3.0,
// 11). The version byte is inside every digest: a change to any
// algorithm's bytes bumps the version and these digests together.
var goldenSnapshots = map[string]string{
	"AdaBoostM1":           "6a2b833579924064f7b1f934034183f7ad25418e56b1fb334a2cdcbac04172b8",
	"Bagging":              "cee854366df508b0e02d83b3ea3d0bf7bb23eda14ce18ce81a343077fe90ce48",
	"DecisionStump":        "ba74c00cb312cd64b4973eda572bfb62881c8743ec5c5da64a6f021337011171",
	"IBk":                  "21dc3203cd30d99af9ae7231c7815a3a2830c704200517e1ba38c000e23dc26e",
	"J48":                  "f000e1c35e46bfa1a591b44e7b1c602f2dd90e624e3bc55cafc2f115df874b6c",
	"Logistic":             "062e3648790285a3a4bbc3adad242f154482c03fcd6c5b1a57fd7994d8676a51",
	"MultilayerPerceptron": "9892ebbbe5e1af3a67eb9b83959e96a4148eb376f3d25a177d07295ea79915f1",
	"NaiveBayes":           "721673935fbeeadb0e6fa2ad597bd2d0bab37e2272fb59710459093f031ec897",
	"OneR":                 "88ead01f42223fcdd0650d5174d2a0a064688e42e102134579beaa860cb8e682",
	"Prism":                "e231c3abbd929be99c50187d3a2c644d746212fd447e4679da3cf4133c3eea3c",
	"RandomForest":         "58659d9d2ea884942228a46805efbfb5273c65f40bbb5b25cecca952d29a40c7",
	"RandomTree":           "f35660ef631641b4d2a9efaa4d4c6c02292ff03a83f9555ea84b7aa2dfcaf02d",
	"ZeroR":                "02ad543374628ffd84fbedfddeb893acd3013244012ba5a12195f95736fa6dcc",
}

// snapshots returns one snapshot per registered classifier and per
// clusterer with a snapshot form, keyed by registry name.
func snapshots(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range classify.Names() {
		c, err := classify.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Train(datagen.Weather()) != nil {
			c, _ = classify.New(name)
			if err := c.Train(datagen.ContactLenses()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if out[name], err = Marshal(c); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestSnapshotGoldenDigests(t *testing.T) {
	snaps := snapshots(t)
	if len(snaps) != len(goldenSnapshots) {
		t.Errorf("%d algorithms snapshot, %d have golden digests", len(snaps), len(goldenSnapshots))
	}
	for name, b := range snaps {
		if b[len(magic)] != version {
			t.Fatalf("%s: version byte %d, want %d", name, b[len(magic)], version)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != goldenSnapshots[name] {
			t.Errorf("%s: snapshot digest %s, want %s", name, got, goldenSnapshots[name])
		}
	}
}

// TestForestShapeGoldenDigests holds the snapshots of model_resume's
// shape, trained on RandomNominal(512, 10, 4, 0.2, 11), to digests
// recorded while trees were still decoded into *TreeNode graphs: a
// 20-tree RandomForest, a J48 (fractional weights: the float64 dist
// block) and a Bagging of unpruned J48s. Four copies trained side by
// side at GOMAXPROCS 2, sharing its one helper token, write the same
// bytes.
func TestForestShapeGoldenDigests(t *testing.T) {
	golden := map[string]string{
		"RandomForest": "23bcf6a969dab8598b7922c6f8094a541f6f9b5e5b629bbfd73dc2f98ba05c12",
		"J48":          "a941db114d5c4306f84c7b5e3b60591fd8aa4955f6b1789d43f8d67d38bb881c",
		"Bagging":      "bf2dd8aa360e3d5aa516235590bf3f2f6b0ca769c6c1c71fb2e1bd7e1229a4ec",
	}
	train := func(name string) ([]byte, error) {
		c, err := classify.New(name)
		if err != nil {
			return nil, err
		}
		if err := c.Train(datagen.RandomNominal(512, 10, 4, 0.2, 11)); err != nil {
			return nil, err
		}
		return Marshal(c)
	}
	for name, want := range golden {
		b, err := train(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: snapshot digest %s, want %s", name, got, want)
		}
		if restored, err := Unmarshal(b); err != nil {
			t.Fatal(err)
		} else if again, _ := Marshal(restored); !bytes.Equal(again, b) {
			t.Errorf("%s: a restored model re-marshals differently", name)
		}
		prev := runtime.GOMAXPROCS(2)
		copies := make([][]byte, 4)
		err = parallel.ForEach(context.Background(), len(copies), func(i int) (err error) {
			copies[i], err = train(name)
			return err
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range copies {
			if !bytes.Equal(c, b) {
				t.Errorf("%s: contended copy %d writes a different snapshot", name, i)
			}
		}
	}
}

// TestRestoredForestScoresGolden: a forest restored from its snapshot
// scores RandomNominal(256, 10, 4, 0.2, 12) to the digest the live forest
// is held to in classify's TestBaggingMatchesGoldenDigests (SHA-256 over
// each label and the Float64bits of each distribution cell).
func TestRestoredForestScoresGolden(t *testing.T) {
	const want = "ca91657958c374ad8b10c1d0dace028d4aff28fced9b9f47de0d3092202a884e"
	c, _ := classify.New("RandomForest")
	if err := c.Train(datagen.RandomNominal(512, 10, 4, 0.2, 11)); err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	labels, dists, err := classify.PredictBatch(restored, datagen.RandomNominal(256, 10, 4, 0.2, 12))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, dist := range dists {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(labels[i])))
		for _, p := range dist {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(p)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("restored forest: scores digest %s, want %s", got, want)
	}
}

// TestForestRestoreAllocs bounds the allocations of restoring
// model_resume's 20-tree forest: per tree its model and its two slabs, and
// a few for the forest. The members share the forest's class attribute, so
// restoring one reads its class values without allocating a list.
func TestForestRestoreAllocs(t *testing.T) {
	c, _ := classify.New("RandomForest")
	if err := c.Train(datagen.RandomNominal(512, 10, 4, 0.2, 11)); err != nil {
		t.Fatal(err)
	}
	snap, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Unmarshal(snap); err != nil {
			t.Fatal(err)
		}
	}); n > 71 {
		t.Errorf("restoring the forest allocates %v times, want <= 71", n)
	}
}

// FuzzModelUnmarshal: whatever the bytes, the decoder returns a model or
// a *FormatError — never a panic — and allocates at most a constant
// multiple of the input. The seeds are every algorithm's snapshot and the
// records an earlier release wrote (testdata/parent/), each whole and cut
// short.
func FuzzModelUnmarshal(f *testing.F) {
	var seeds [][]byte
	for _, b := range snapshots(f) {
		seeds = append(seeds, b)
	}
	parent, err := filepath.Glob("testdata/parent/*.dmm1")
	if err != nil || len(parent) == 0 {
		f.Fatalf("no parent records: %v", err)
	}
	for _, name := range parent {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, b := range seeds {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := Unmarshal(b)
		runtime.ReadMemStats(&after)
		var fe *binfmt.FormatError
		if (c == nil) == (err == nil) || (err != nil && !errors.As(err, &fe)) {
			t.Fatalf("Unmarshal = %v, %v", c, err)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 256*uint64(len(b))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grown)
		}
	})
}

func TestUnmarshalGarbage(t *testing.T) {
	var fe *binfmt.FormatError
	if _, err := Unmarshal([]byte("junk")); !errors.As(err, &fe) {
		t.Fatalf("garbage: err = %v, want a *FormatError", err)
	}
}

func TestStoreLifecycle(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := trainedJ48(t)
	if err := s.Save("model-1", j); err != nil {
		t.Fatal(err)
	}
	nb := &classify.NaiveBayes{}
	if err := nb.Train(datagen.Weather()); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("model-2", nb); err != nil {
		t.Fatal(err)
	}
	c, err := s.Load("model-1")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "J48" {
		t.Fatalf("loaded %s", c.Name())
	}
	if c, err := s.Load("model-2"); err != nil || c.Name() != "NaiveBayes" {
		t.Fatalf("Load(model-2) = %v, %v", c, err)
	}
	if _, err := s.Load("model-3"); err == nil {
		t.Fatal("Load of an unsaved id succeeded")
	}
}

func TestStoreRejectsPathTraversal(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../evil", "a/b"} {
		if err := s.Save(id, trainedJ48(t)); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
}

func TestStoreOverwrite(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	j := trainedJ48(t)
	if err := s.Save("m", j); err != nil {
		t.Fatal(err)
	}
	nb := &classify.NaiveBayes{}
	if err := nb.Train(datagen.Weather()); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("m", nb); err != nil {
		t.Fatal(err)
	}
	c, err := s.Load("m")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "NaiveBayes" {
		t.Fatalf("overwrite failed: %s", c.Name())
	}
}

// BenchmarkRandomForestSnapshot marshals and restores the 20-tree forest
// a model_resume session holds (512 rows, 10 nominal attributes).
func BenchmarkRandomForestSnapshot(b *testing.B) {
	c, _ := classify.New("RandomForest")
	if err := c.Train(datagen.RandomNominal(512, 10, 4, 0.2, 11)); err != nil {
		b.Fatal(err)
	}
	benchSnapshot(b, c)
}

// BenchmarkIBkSnapshot marshals and restores the IBk k=5 model a
// kernel_heavy session holds (2000 cases × 16 numerics); the restore
// includes building the neighbour index.
func BenchmarkIBkSnapshot(b *testing.B) {
	c := &classify.IBk{K: 5}
	if err := c.Train(datagen.GaussianClusters(4, 2000, 16, 3.0, 1)); err != nil {
		b.Fatal(err)
	}
	benchSnapshot(b, c)
}

func benchSnapshot(b *testing.B, c classify.Classifier) {
	snap, err := Marshal(c)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Marshal(c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(snap)), "snapshot-bytes")
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Unmarshal(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRandomForestResume is one model_resume call's server work
// without the transport: restore the 20-tree forest from its snapshot,
// then score a 64-row block.
func BenchmarkRandomForestResume(b *testing.B) {
	c, _ := classify.New("RandomForest")
	if err := c.Train(datagen.RandomNominal(512, 10, 4, 0.2, 11)); err != nil {
		b.Fatal(err)
	}
	snap, err := Marshal(c)
	if err != nil {
		b.Fatal(err)
	}
	block := datagen.RandomNominal(64, 10, 4, 0.2, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Unmarshal(snap)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := classify.PredictBatch(m, block); err != nil {
			b.Fatal(err)
		}
	}
}
