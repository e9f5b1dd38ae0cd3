package wire

import (
	"encoding/base64"
	"errors"
	"math"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// blockKinds lists every block kind with a block the previous release
// encoded (the byte format is a compatibility contract: replicas of both
// releases share a wire). roundTrip decodes and re-encodes through the
// kind's exported base64 pair, so a kind passes only if today's decoder
// reads the parent's bytes and today's encoder reproduces them.
type corruption struct {
	what string
	at   int
	v    byte
}

var blockKinds = []struct {
	magic     string
	parent    string // base64 block as the parent commit wrote it
	roundTrip func(block string) (string, error)
	corrupt   []corruption // kind-specific single-byte damage to parent
}{
	{magicDataset, "RE1CMQEBBwAAAGZpeHR1cmUCAAAAAwAAAAEAAAB4AAAAAAAEAAAAbm90ZQICAAAABQAAAGZpcnN0BgAAAHNlY29uZAUAAABjbGFzcwECAAAAAgAAAG5vAwAAAHllc12pLAMsc2OVAwAAABgAAAAAAAAAAAD4PwEAAAAAAPh/AAAAAAAACMAYAAAAAAAAAAAAAAAAAAAAAADwPwAAAAAAAAAAGAAAAAAAAAAAAAAAAAAAAAAA8D8AAAAAAADwPxgAAAAAAAAAAADwPwAAAAAAAABAAAAAAAAA8D8=",
		func(block string) (string, error) {
			d, err := UnmarshalBase64(block)
			if err != nil {
				return "", err
			}
			if d.Relation != "fixture" || d.NumInstances() != 3 || d.ClassAttribute().Name != "class" ||
				d.Columns()[0][0] != 1.5 || !math.IsNaN(d.Columns()[0][1]) || d.Attrs[1].Value(1) != "second" ||
				d.Columns()[2][2] != 1 || d.WeightsSlice()[1] != 2 {
				return "", errors.New("decoded dataset differs from what the parent encoded")
			}
			return MarshalBase64(d)
		},
		[]corruption{{"byte changed inside the relation string (schema digest)", 10, 'F'}}},
	{magicResult, "RE1SMQECAAAAAgAAAG5vAwAAAHllcwMAAAAMAAAAAAAAAAEAAAABAAAAGAAAAAAAAAAAAOg/AAAAAAAA0D8AAAAAAAAAABgAAAAAAAAAAADQPwAAAAAAAOg/AAAAAAAA8D8=",
		func(block string) (string, error) {
			res, err := UnmarshalResultBase64(block)
			if err != nil {
				return "", err
			}
			if len(res.Classes) != 2 || res.Classes[1] != "yes" || len(res.Labels) != 3 || res.Labels[2] != 1 ||
				res.Distributions[0][0] != 0.75 || res.Distributions[1][2] != 1 {
				return "", errors.New("decoded result differs from what the parent encoded")
			}
			return MarshalResultBase64(res)
		},
		[]corruption{{"out-of-range label", 30, 9}}},
	{magicCluster, "RE1DMQEBAgAAAAMAAAAMAAAAAAAAAAEAAAD/////GAAAAAAAAAAAAPA/AAAAAAAAAEAAAAAAAAAIQBgAAAAAAAAAAAAQQAAAAAAAABRAAAAAAAAAGEA=",
		func(block string) (string, error) {
			res, err := UnmarshalClusterResultBase64(block)
			if err != nil {
				return "", err
			}
			if res.Clusters != 2 || res.ScoreKind != ScoreDistance || len(res.Assignments) != 3 ||
				res.Assignments[1] != 1 || res.Assignments[2] != -1 || res.Scores[1][2] != 6 {
				return "", errors.New("decoded cluster result differs from what the parent encoded")
			}
			return MarshalClusterResultBase64(res)
		},
		[]corruption{{"unknown score-kind code", 5, 7}, {"out-of-range assignment", 18, 9}}},
	{magicRegress, "RE1WMQEBAAAAeQMAAAAYAAAAAAAAAAAA8D8AAAAAAAAEQAAAAAAAABDA",
		func(block string) (string, error) {
			res, err := UnmarshalRegressResultBase64(block)
			if err != nil {
				return "", err
			}
			if res.Target != "y" || len(res.Values) != 3 || res.Values[1] != 2.5 || res.Values[2] != -4 {
				return "", errors.New("decoded regress result differs from what the parent encoded")
			}
			return MarshalRegressResultBase64(res)
		},
		[]corruption{{"row count inflated past the column", 10, 200}}},
}

// TestBlockFrameAllKinds runs every block kind through the frame they
// share: a parent-encoded block round-trips to the same bytes; any other
// kind's magic, an unknown version, each kind's own corruptions, every
// proper prefix, a trailing byte and a payload that is not base64 are
// each a *binfmt.FormatError, never a panic.
func TestBlockFrameAllKinds(t *testing.T) {
	for _, k := range blockKinds {
		t.Run(k.magic, func(t *testing.T) {
			again, err := k.roundTrip(k.parent)
			if err != nil {
				t.Fatalf("parent-encoded block: %v", err)
			}
			if again != k.parent {
				t.Fatalf("re-encoding changed the bytes:\n got %s\nwant %s", again, k.parent)
			}
			valid, _ := base64.StdEncoding.DecodeString(k.parent)

			reject := func(what, block string) {
				t.Helper()
				_, err := k.roundTrip(block)
				var fe *binfmt.FormatError
				if !errors.As(err, &fe) {
					t.Errorf("%s: err = %v, want a *binfmt.FormatError", what, err)
				}
			}
			rejectBytes := func(what string, b []byte) {
				t.Helper()
				reject(what, base64.StdEncoding.EncodeToString(b))
			}
			for _, other := range blockKinds {
				if other.magic != k.magic {
					rejectBytes("magic "+other.magic, append([]byte(other.magic), valid[4:]...))
				}
			}
			damage := append([]corruption{{"version 0", 4, 0}, {"version 2", 4, 2}, {"version 99", 4, 99}}, k.corrupt...)
			for _, c := range damage {
				b := append([]byte(nil), valid...)
				b[c.at] = c.v
				rejectBytes(c.what, b)
			}
			for n := 0; n < len(valid); n++ {
				rejectBytes("proper prefix", valid[:n])
			}
			rejectBytes("trailing byte", append(append([]byte(nil), valid...), 0xDE))
			reject("not base64", "!!!not base64!!!")
		})
	}
}

// FuzzBlocks runs the raw decoders of all four kinds on any bytes: none
// panics, every error is a *binfmt.FormatError, and an accepted block marshals
// back to exactly its bytes. The one exception is a value spelled in a
// form no encoder writes — a NaN with another payload, or a weights
// block of ones — which marshals to the canonical block instead, and
// that block round-trips byte for byte. The seeds are the parent blocks.
func FuzzBlocks(f *testing.F) {
	for i, k := range blockKinds {
		b, err := base64.StdEncoding.DecodeString(k.parent)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), b)
	}
	f.Fuzz(func(t *testing.T, kind uint8, b []byte) {
		c := codecs[int(kind)%len(codecs)]
		v, err := c.fromBytes(b)
		if err != nil {
			var fe *binfmt.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("%s: err = %v, want a *binfmt.FormatError", c.magic, err)
			}
			return
		}
		again, err := c.toBytes(v)
		if err != nil {
			t.Fatalf("%s: accepted block does not marshal: %v", c.magic, err)
		}
		if string(again) == string(b) {
			return
		}
		if !spelledNonCanonically(c, v, b) {
			t.Fatalf("%s: block re-marshals differently:\n got %x\nwant %x", c.magic, again, b)
		}
		v, err = c.fromBytes(again)
		if err != nil {
			t.Fatalf("%s: canonical block does not decode: %v", c.magic, err)
		}
		if twice, err := c.toBytes(v); err != nil || string(twice) != string(again) {
			t.Fatalf("%s: canonical block does not round-trip (err %v)", c.magic, err)
		}
	})
}

// spelledNonCanonically reports whether v, decoded from b, holds a NaN
// other than the canonical one, or b is a dmb1 block with the weights
// flag and every weight 1.
func spelledNonCanonically(c codec, v any, b []byte) bool {
	for _, col := range c.floats(v) {
		for _, x := range col {
			if x != x && math.Float64bits(x) != math.Float64bits(math.NaN()) {
				return true
			}
		}
	}
	if c.magic != magicDataset || b[5]&flagWeights == 0 {
		return false
	}
	for _, w := range v.(*dataset.Dataset).WeightsSlice() {
		if w != 1 {
			return false
		}
	}
	return true
}
