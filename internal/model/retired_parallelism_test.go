package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// answerDigest hashes a classifier's answers on d bit for bit: every
// class distribution.
func answerDigest(t testing.TB, m classify.Classifier, d *dataset.Dataset) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, in := range d.Instances {
		dist, err := m.Distribution(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range dist {
			put(math.Float64bits(p))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestParentSnapshotsRestore feeds the decoder DMM1 records that an
// earlier release wrote for models trained with the since-retired
// "parallelism" option set to 4 (testdata/parent/: RandomForest on
// RandomNominal(200, 6, 3, 0.2, 5)). It restores and answers bit for
// bit as that release did (the digests were recorded there), and
// re-marshals with exactly one byte changed: the reserved slot, read as 4
// and written as 0.
func TestParentSnapshotsRestore(t *testing.T) {
	for _, tc := range []struct {
		name   string
		data   *dataset.Dataset
		digest string
	}{
		{"RandomForest", datagen.RandomNominal(200, 6, 3, 0.2, 5), "ebe526e0ac202f5f800a4eeaa1c4b541ebf19bdda96649d865fdbfa9f39b2aac"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, err := os.ReadFile("testdata/parent/" + tc.name + ".dmm1")
			if err != nil {
				t.Fatal(err)
			}
			m, err := Unmarshal(old)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if got := answerDigest(t, m, tc.data); got != tc.digest {
				t.Fatalf("answer digest %s, want the earlier release's %s", got, tc.digest)
			}
			if len(again) != len(old) {
				t.Fatalf("re-marshalled %d bytes, want %d", len(again), len(old))
			}
			var diff []int
			for i := range old {
				if old[i] != again[i] {
					diff = append(diff, i)
				}
			}
			if len(diff) != 1 || old[diff[0]] != 8 || again[diff[0]] != 0 {
				t.Fatalf("bytes differ at %v; want only the reserved slot, zig-zag 4 (0x08) -> 0", diff)
			}
		})
	}
}

// TestParallelismIsNotAnOption: no algorithm takes a worker count; the
// parallel package alone picks it. Setting one is an unknown-option
// error, and no algorithm lists it.
func TestParallelismIsNotAnOption(t *testing.T) {
	type parameterized interface {
		SetOption(name, value string) error
	}
	for _, tc := range []struct {
		name string
		algo parameterized
	}{
		{"IBk", &classify.IBk{}},
		{"Bagging", &classify.Bagging{}},
		{"RandomForest", &classify.RandomForest{}},
		{"SimpleKMeans", &cluster.KMeans{}},
		{"EM", &cluster.EM{}},
	} {
		if err := tc.algo.SetOption("parallelism", "4"); err == nil {
			t.Errorf("%s accepted a parallelism option", tc.name)
		}
		var names []string
		switch a := tc.algo.(type) {
		case algo.Parameterized:
			for _, o := range a.Options() {
				names = append(names, o.Name)
			}
		}
		if len(names) == 0 || slices.Contains(names, "parallelism") {
			t.Errorf("%s options = %v", tc.name, names)
		}
	}
}
