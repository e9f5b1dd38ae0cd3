package regress

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
)

// valuesDigest is SHA-256 over the Float64bits of every prediction.
func valuesDigest(vals []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPredictionsMatchGoldenDigests holds every regressor to digests of its
// predictions on regressTestData(t, 40, 11), recorded from the tree in
// which each regressor still had separate row and columnar bodies (and both
// agreed). The single body must reproduce them through Predict and
// PredictBatch, on row-backed and column-backed input alike.
func TestPredictionsMatchGoldenDigests(t *testing.T) {
	train := regressTestData(t, 60, 4)
	d := regressTestData(t, 40, 11)
	cd, err := dataset.FromColumns(d.Relation, d.Attrs, d.ClassIndex, d.Columns(), d.WeightsSlice())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		r    Regressor
		want string
	}{
		{&LinearRegression{}, "345824314c7f0314ac698aeb82bd638416b7a2f4c4f5b3a676e4b3bc8fd91ec4"},
		{&KNNRegressor{}, "10f08e7b0f1d37f395122e750e0e53e4315023ef14c19ee8dfb275a8c1ff4be3"},
		{&KNNRegressor{K: 5, DistanceWeight: true}, "84b12323044c04262d186dd0e6ac3b9408bf15aa10ef63e9fe5e3bb8cd0171d1"},
	} {
		if err := tc.r.Train(train); err != nil {
			t.Fatal(err)
		}
		for backing, in := range map[string]*dataset.Dataset{"rows": d, "columns": cd} {
			rows := make([]float64, in.NumInstances())
			for i, x := range in.Instances {
				if rows[i], err = tc.r.Predict(x); err != nil {
					t.Fatal(err)
				}
			}
			batch, err := PredictBatch(tc.r, in)
			if err != nil {
				t.Fatal(err)
			}
			for path, vals := range map[string][]float64{"Predict": rows, "PredictBatch": batch} {
				if got := valuesDigest(vals); got != tc.want {
					t.Errorf("%s %s (%s-backed): digest %s, want %s", tc.r.Name(), path, backing, got, tc.want)
				}
			}
		}
	}
}
