package services

import (
	"context"
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/soap"
	"repro/internal/viz"
)

// parseXYSeries reads "x,y" lines into a viz.Series.
func parseXYSeries(text, name string) (viz.Series, error) {
	s := viz.Series{Name: name}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cells := strings.Split(line, ",")
		if len(cells) < 2 {
			return s, fmt.Errorf("line %d: want x,y", ln+1)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(cells[0]), 64)
		if err != nil {
			return s, fmt.Errorf("line %d: %v", ln+1, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(cells[1]), 64)
		if err != nil {
			return s, fmt.Errorf("line %d: %v", ln+1, err)
		}
		s.X = append(s.X, x)
		s.Y = append(s.Y, y)
	}
	if len(s.X) == 0 {
		return s, fmt.Errorf("no points")
	}
	return s, nil
}

// NewPlotService builds the GNUPlot-substitute Web Service (§1 wraps
// GNUPlot for visualisation):
//
//	plot(points)     -> ASCII plot (GNUPlot "dumb terminal" style)
//	plotPNG(points, kind) -> base64 PNG (scatter or line)
func NewPlotService() *Service {
	return register(serviceDesc{
		Name:     "Plot",
		Version:  "1.1",
		Category: "visualisation",
		Doc:      "GNUPlot-substitute plotting: ASCII and PNG renderings of x,y point series (§1).",
		Ops: []op{
			{
				Name: "plot",
				Doc:  "Plot x,y points as ASCII art (GNUPlot dumb-terminal style).",
				In:   []string{partPoints},
				Out:  []string{partPlot},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					text, err := require(parts, "points")
					if err != nil {
						return nil, err
					}
					s, err := parseXYSeries(text, "data")
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: "malformed points", Detail: err.Error()}
					}
					return map[string]string{"plot": viz.AsciiPlot(64, 20, s)}, nil
				},
			},
			{
				Name: "plotPNG",
				Doc:  "Plot x,y points as a PNG image (scatter or line).",
				In:   []string{partPoints, partKind},
				Out:  []string{partImage},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					text, err := require(parts, "points")
					if err != nil {
						return nil, err
					}
					s, err := parseXYSeries(text, "data")
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: "malformed points", Detail: err.Error()}
					}
					var png []byte
					if strings.TrimSpace(parts["kind"]) == "line" {
						png, err = viz.LinePNG(640, 480, s)
					} else {
						png, err = viz.ScatterPNG(640, 480, s)
					}
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					return map[string]string{"image": base64.StdEncoding.EncodeToString(png)}, nil
				},
			},
		},
	})
}

// NewMathService builds the Mathematica-substitute Web Service of §4.2,
// whose "most important operation" is plot3D: "plot data points sent as a
// CSV file in three dimension and return the plotted graph as an image file
// (PNG format)".
func NewMathService() *Service {
	return register(serviceDesc{
		Name:     "Math",
		Version:  "1.1",
		Category: "visualisation",
		Doc:      "Mathematica-substitute service: 3D plotting of CSV point clouds as PNG (§4.2).",
		Ops: []op{
			{
				Name: "plot3D",
				Doc:  "Plot x,y,z CSV points in three dimensions; returns a PNG image.",
				In:   []string{partPoints},
				Out:  []string{partImage},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					text, err := require(parts, "points")
					if err != nil {
						return nil, err
					}
					var pts []viz.Point3D
					for ln, line := range strings.Split(text, "\n") {
						line = strings.TrimSpace(line)
						if line == "" || strings.HasPrefix(line, "#") {
							continue
						}
						cells := strings.Split(line, ",")
						if len(cells) < 3 {
							return nil, &soap.Fault{Code: "soap:Client",
								String: fmt.Sprintf("points line %d: want x,y,z", ln+1)}
						}
						var xyz [3]float64
						for i := 0; i < 3; i++ {
							v, err := strconv.ParseFloat(strings.TrimSpace(cells[i]), 64)
							if err != nil {
								return nil, &soap.Fault{Code: "soap:Client",
									String: fmt.Sprintf("points line %d: %v", ln+1, err)}
							}
							xyz[i] = v
						}
						pts = append(pts, viz.Point3D{X: xyz[0], Y: xyz[1], Z: xyz[2]})
					}
					png, err := viz.Plot3DPNG(640, 480, pts)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					return map[string]string{"image": base64.StdEncoding.EncodeToString(png)}, nil
				},
			},
		},
	})
}
