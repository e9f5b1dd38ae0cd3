package classify_test

import (
	"errors"
	"os"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/model"
)

// TestIBkRestoresEarlierSnapshot feeds model.Unmarshal testdata/ibk-parent.gob,
// an IBk snapshot as earlier releases wrote it (encoding/gob), plus every
// prefix of it. Each is a typed *binfmt.FormatError — never a panic, never a
// model — which the durable store turns into a rebuild.
func TestIBkRestoresEarlierSnapshot(t *testing.T) {
	snap, err := os.ReadFile("testdata/ibk-parent.gob")
	if err != nil {
		t.Fatal(err)
	}
	for n := len(snap); n >= 0; n -= 1 + n/8 {
		c, err := model.Unmarshal(snap[:n])
		var fe *binfmt.FormatError
		if c != nil || !errors.As(err, &fe) {
			t.Fatalf("%d-byte prefix: restored %v, err = %v; want a *binfmt.FormatError", n, c, err)
		}
	}
}
