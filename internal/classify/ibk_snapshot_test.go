package classify_test

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/model"
)

// TestIBkRestoresEarlierSnapshot restores testdata/ibk-parent.gob — an
// IBk{K: 5, DistanceWeight: true} trained on GaussianClusters(3, 150, 4,
// 2.0, 7) and written by model.Marshal when IBk still held *Instance
// pointers — and checks the restored model answers GaussianClusters(3,
// 60, 4, 2.0, 8) exactly as that model did (ibk-parent-dists.txt, one
// row of float64 bit patterns per query) and re-encodes to the same bytes.
func TestIBkRestoresEarlierSnapshot(t *testing.T) {
	snap, err := os.ReadFile("testdata/ibk-parent.gob")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/ibk-parent-dists.txt")
	if err != nil {
		t.Fatal(err)
	}
	c, err := model.Unmarshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*classify.IBk); !ok {
		t.Fatalf("restored a %T", c)
	}
	q := datagen.GaussianClusters(3, 60, 4, 2.0, 8)
	_, batch, err := classify.PredictBatch(c, q)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(lines) != q.NumInstances() {
		t.Fatalf("%d expected rows for %d queries", len(lines), q.NumInstances())
	}
	for i, line := range lines {
		row, err := c.Distribution(q.Instances[i])
		if err != nil {
			t.Fatal(err)
		}
		for cl, field := range strings.Fields(line) {
			bits, err := strconv.ParseUint(field, 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(row[cl]) != bits || math.Float64bits(batch[i][cl]) != bits {
				t.Fatalf("row %d class %d: row %v batch %v, snapshot-era model gave %v",
					i, cl, row[cl], batch[i][cl], math.Float64frombits(bits))
			}
		}
	}
	// gob numbers types process-wide in order of first use, so encoded
	// bytes are only comparable from a process that has encoded nothing
	// else first: check them in a fresh run of this one test.
	if os.Getenv("IBK_SNAPSHOT_REENCODE") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestIBkRestoresEarlierSnapshot$")
		cmd.Env = append(os.Environ(), "IBK_SNAPSHOT_REENCODE=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("re-encode in a fresh process: %v\n%s", err, out)
		}
		return
	}
	again, err := model.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, snap) {
		t.Fatalf("re-encoded snapshot differs: %d bytes, want %d", len(again), len(snap))
	}
}
