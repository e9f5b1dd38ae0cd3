package classify_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// scoresDigest is SHA-256 over every label and the Float64bits of every
// distribution cell.
func scoresDigest(labels []int, dists [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for i, dist := range dists {
		binary.LittleEndian.PutUint64(b[:], uint64(labels[i]))
		h.Write(b[:])
		for _, p := range dist {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScoresMatchGoldenDigests holds NaiveBayes and J48 to digests of their
// self-scoring on four datasets, recorded from the tree in which each still
// had separate row and columnar bodies (and both agreed). The single body
// must reproduce them through Distribution and PredictBatch, on row-backed
// and column-backed input alike.
func TestScoresMatchGoldenDigests(t *testing.T) {
	sets := map[string]*dataset.Dataset{
		"Weather":       datagen.Weather(),
		"ContactLenses": datagen.ContactLenses(),
		"BreastCancer":  datagen.BreastCancer(),
		"IrisLike":      datagen.IrisLike(30, 7),
	}
	golden := map[string]string{
		"NaiveBayes/Weather":       "c5500e4748e748328b15ac3449c091c7aede614011e4ea4d5ba129d312c12556",
		"NaiveBayes/ContactLenses": "6a0ef88e323536be671151a51bba4043971ceaeb0ef0a3862f42f6eebe972243",
		"NaiveBayes/BreastCancer":  "30ef1af0d7a6e1f1cc6336c23a755ec9ded32270887ec08008a073c237b2f861",
		"NaiveBayes/IrisLike":      "11077fcd282ff8d6ffac10c19132a11984086baa385b6d701df287ecf9c75ab9",
		"J48/Weather":              "f598cd39779e60666a88cce80012d6d8e4e0a365fa717dc66c38c14060253ea0",
		"J48/ContactLenses":        "9e355180dcf0e50f175a99ec6851f23a616ebc3c23624d642edaee9b728d00da",
		"J48/BreastCancer":         "f071f448abd8995fee226181421773ff2e5ba47910a8459742f5de829b9dc970",
		"J48/IrisLike":             "25db3d42c52da48e4b7a6225886341e50d6e5c4f1656ab565b3211ad57113f11",
	}
	for key, want := range golden {
		name, set, _ := strings.Cut(key, "/")
		d := sets[set]
		c, err := classify.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(d); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		cd, err := dataset.FromColumns(d.Relation, d.Attrs, d.ClassIndex, d.Columns(), d.WeightsSlice())
		if err != nil {
			t.Fatal(err)
		}
		for backing, in := range map[string]*dataset.Dataset{"rows": d, "columns": cd} {
			labels := make([]int, in.NumInstances())
			dists := make([][]float64, in.NumInstances())
			for i, x := range in.Instances {
				if dists[i], err = c.Distribution(x); err != nil {
					t.Fatal(err)
				}
				if labels[i], err = classify.Predict(c, x); err != nil {
					t.Fatal(err)
				}
			}
			if got := scoresDigest(labels, dists); got != want {
				t.Errorf("%s Distribution (%s-backed): digest %s, want %s", key, backing, got, want)
			}
			bl, bd, err := classify.PredictBatch(c, in)
			if err != nil {
				t.Fatal(err)
			}
			if got := scoresDigest(bl, bd); got != want {
				t.Errorf("%s PredictBatch (%s-backed): digest %s, want %s", key, backing, got, want)
			}
		}
	}
}

// TestBaggingMatchesGoldenDigests holds RandomForest and Bagging scoring to
// digests recorded while Distribution still polled the members in
// parallel: the sequential member loop must sum the same votes in the same
// order, bit for bit.
func TestBaggingMatchesGoldenDigests(t *testing.T) {
	golden := map[string]string{
		"RandomForest": "ca91657958c374ad8b10c1d0dace028d4aff28fced9b9f47de0d3092202a884e",
		"Bagging":      "230b9ba1415d8c5439a1d6e22e89c30a39b5f8684ba1c06def31b01fa7b66a30",
	}
	q := datagen.RandomNominal(256, 10, 4, 0.2, 12)
	for name, want := range golden {
		c, err := classify.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(datagen.RandomNominal(512, 10, 4, 0.2, 11)); err != nil {
			t.Fatal(err)
		}
		labels, dists, err := classify.PredictBatch(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := scoresDigest(labels, dists); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}

// BenchmarkRandomForestDistribution scores one row with model_resume's
// 20-tree forest.
func BenchmarkRandomForestDistribution(b *testing.B) {
	c, _ := classify.New("RandomForest")
	if err := c.Train(datagen.RandomNominal(512, 10, 4, 0.2, 11)); err != nil {
		b.Fatal(err)
	}
	rows := datagen.RandomNominal(64, 10, 4, 0.2, 12).Instances
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Distribution(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomForestTrain trains the 20-tree forest a model_resume
// createSession builds (256 rows, 10 nominal attributes).
func BenchmarkRandomForestTrain(b *testing.B) {
	d := datagen.RandomNominal(256, 10, 4, 0.2, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := classify.New("RandomForest")
		if err := c.Train(d); err != nil {
			b.Fatal(err)
		}
	}
}
