package viz

import (
	"bytes"
	"image/png"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/datagen"
)

func trainedTree(t *testing.T) *classify.TreeNode {
	t.Helper()
	j := classify.NewJ48()
	if err := j.Train(datagen.BreastCancer()); err != nil {
		t.Fatal(err)
	}
	return j.Tree()
}

func TestTreeDOT(t *testing.T) {
	dot := TreeDOT(trainedTree(t))
	for _, want := range []string{"digraph J48", "node-caps", "recurrence-events", "->", "label=\"= yes\""} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT lacks %q:\n%s", want, dot)
		}
	}
	// Balanced braces.
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Fatal("unbalanced braces in DOT")
	}
}

func TestTreeASCII(t *testing.T) {
	out := TreeASCII(trainedTree(t))
	if !strings.Contains(out, "node-caps = yes") || !strings.Contains(out, "-> ") {
		t.Fatalf("ASCII tree:\n%s", out)
	}
}

func TestCobwebDOT(t *testing.T) {
	cw := &cluster.Cobweb{Acuity: 1, Cutoff: 0.0028}
	if err := cw.Build(datagen.Weather()); err != nil {
		t.Fatal(err)
	}
	dot := CobwebDOT(cw.Root())
	if !strings.Contains(dot, "digraph Cobweb") || !strings.Contains(dot, "c0") {
		t.Fatalf("cobweb DOT:\n%s", dot)
	}
}

func TestDendrogram(t *testing.T) {
	h := &cluster.Hierarchical{K: 2, Linkage: cluster.AverageLink}
	d := datagen.GaussianClusters(2, 20, 2, 8, 3)
	if err := h.Build(d); err != nil {
		t.Fatal(err)
	}
	out := Dendrogram(h.Merges(), 20)
	if !strings.Contains(out, "merge@") || !strings.Contains(out, "leaf") {
		t.Fatalf("dendrogram:\n%s", out)
	}
	if got := Dendrogram(nil, 0); !strings.Contains(got, "no merges") {
		t.Fatalf("empty dendrogram = %q", got)
	}
}

func TestClusterSummary(t *testing.T) {
	out := ClusterSummary([]int{0, 0, 1, -1}, 2)
	if !strings.Contains(out, "cluster 0") || !strings.Contains(out, "noise/unassigned: 1") {
		t.Fatalf("summary:\n%s", out)
	}
}

func TestAsciiPlot(t *testing.T) {
	s := Series{Name: "wave", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 0, -1}}
	out := AsciiPlot(40, 10, s)
	if !strings.Contains(out, "*") || !strings.Contains(out, "wave") {
		t.Fatalf("plot:\n%s", out)
	}
	if got := AsciiPlot(40, 10); !strings.Contains(got, "empty") {
		t.Fatalf("empty plot = %q", got)
	}
	// Multiple series get distinct glyphs.
	s2 := Series{Name: "other", X: []float64{0, 3}, Y: []float64{1, 1}}
	multi := AsciiPlot(40, 10, s, s2)
	if !strings.Contains(multi, "+ = other") {
		t.Fatalf("legend missing:\n%s", multi)
	}
}

func TestHistogram(t *testing.T) {
	out := histogram([]string{"a", "bb"}, []float64{2, 4}, 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("histogram lines: %v", lines)
	}
	if strings.Count(lines[1], "#") != 20 {
		t.Fatalf("max bar should fill width: %q", lines[1])
	}
	if strings.Count(lines[0], "#") != 10 {
		t.Fatalf("half bar: %q", lines[0])
	}
}

func decodePNG(t *testing.T, b []byte) (w, h int) {
	t.Helper()
	img, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("not a PNG: %v", err)
	}
	return img.Bounds().Dx(), img.Bounds().Dy()
}

func TestScatterPNG(t *testing.T) {
	s := Series{X: []float64{1, 2, 3}, Y: []float64{3, 1, 2}}
	b, err := ScatterPNG(320, 240, s)
	if err != nil {
		t.Fatal(err)
	}
	if w, h := decodePNG(t, b); w != 320 || h != 240 {
		t.Fatalf("dimensions %dx%d", w, h)
	}
}

func TestLinePNG(t *testing.T) {
	s := Series{X: []float64{0, 1, 2}, Y: []float64{0, 5, 0}}
	b, err := LinePNG(200, 150, s)
	if err != nil {
		t.Fatal(err)
	}
	decodePNG(t, b)
}

func TestPlot3DPNG(t *testing.T) {
	var pts []Point3D
	for i := 0; i < 100; i++ {
		x, y := float64(i%10), float64(i/10)
		pts = append(pts, Point3D{X: x, Y: y, Z: x * y})
	}
	b, err := Plot3DPNG(400, 300, pts)
	if err != nil {
		t.Fatal(err)
	}
	if w, h := decodePNG(t, b); w != 400 || h != 300 {
		t.Fatalf("dimensions %dx%d", w, h)
	}
	if _, err := Plot3DPNG(100, 100, nil); err == nil {
		t.Fatal("empty 3D plot accepted")
	}
}

func TestPNGNotBlank(t *testing.T) {
	// The rendered scatter must contain non-white pixels besides the axes.
	s := Series{X: []float64{1, 2, 3, 4}, Y: []float64{1, 4, 9, 16}}
	b, err := ScatterPNG(200, 200, s)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	coloured := 0
	bounds := img.Bounds()
	for y := bounds.Min.Y; y < bounds.Max.Y; y++ {
		for x := bounds.Min.X; x < bounds.Max.X; x++ {
			r, g, bl, _ := img.At(x, y).RGBA()
			if r != g || g != bl { // a palette colour, not greyscale
				coloured++
			}
		}
	}
	if coloured < 4 {
		t.Fatalf("only %d coloured pixels", coloured)
	}
}
