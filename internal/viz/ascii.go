// Package viz implements the visualisation substrate of the toolkit: the
// decision-tree and cluster visualisers of §4.3, an ASCII plotter standing
// in for GNUPlot's dumb terminal, and PNG renderers standing in for the
// Mathematica plot3D Web Service of §4.2.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Series is a named sequence of (X, Y) points.
type Series struct {
	Name string
	X, Y []float64
}

// AsciiPlot renders series as a width×height character plot in the style of
// GNUPlot's "dumb" terminal, with axis ranges annotated. Each series uses
// its own glyph (*, +, o, x, ...).
func AsciiPlot(width, height int, series ...Series) string {
	if width < 16 {
		width = 16
	}
	if height < 8 {
		height = 8
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if minX > maxX {
		return "(empty plot)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = g
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10.4g +", maxY)
	b.WriteString(strings.Repeat("-", width))
	b.WriteString("+\n")
	for _, row := range grid {
		b.WriteString(strings.Repeat(" ", 11))
		b.WriteByte('|')
		b.Write(row)
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "%10.4g +%s+\n", minY, strings.Repeat("-", width))
	fmt.Fprintf(&b, "%12s%-10.4g%*s%10.4g\n", "", minX, width-18, "", maxX)
	for si, s := range series {
		if s.Name != "" {
			fmt.Fprintf(&b, "  %c = %s\n", glyphs[si%len(glyphs)], s.Name)
		}
	}
	return b.String()
}

// histogram renders counts as a horizontal ASCII bar chart with labels.
func histogram(labels []string, counts []float64, width int) string {
	if width < 10 {
		width = 40
	}
	max := 0.0
	labW := 0
	for i, c := range counts {
		if c > max {
			max = c
		}
		if i < len(labels) && len(labels[i]) > labW {
			labW = len(labels[i])
		}
	}
	var b strings.Builder
	for i, c := range counts {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		bar := 0
		if max > 0 {
			bar = int(c / max * float64(width))
		}
		fmt.Fprintf(&b, "%-*s |%s %g\n", labW, label, strings.Repeat("#", bar), c)
	}
	return b.String()
}
