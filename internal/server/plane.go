package server

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"

	"channeldns/internal/core"
)

// Field planes, the one renderer: a wall-parallel plane of a single-rank
// channel solver, encoded as a grayscale PNG. Two callers share it. The
// run loop of dnsserve renders the mid-channel streamwise-velocity plane
// between steps and publishes it two ways — the latest frame is served
// whole on GET /v1/jobs/{id}/plane.png, and a small PlaneFrame descriptor
// (step + extrema, not the pixels) rides the event stream so watchers know
// when to re-fetch. Shipping pixels by reference keeps the stream cheap for
// watchers that only want numbers. `dns -plane` writes the paper's Figure 7
// (u at mid-height) and Figure 8 (omega_z near y+ = 10) after its last step.

// PlaneFrame is the stream-side descriptor of a rendered plane.
type PlaneFrame struct {
	Step int     `json:"step"`
	Comp string  `json:"comp"`
	Yi   int     `json:"yi"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// W and H are the PNG dimensions (physical-grid MX x MZ).
	W int `json:"w"`
	H int `json:"h"`
}

// compNames are the PlaneFrame.Comp names of the extractable components.
var compNames = [...]string{core.CompU: "u", core.CompV: "v", core.CompW: "w", core.CompOmegaZ: "omegaz"}

// RenderPlane extracts component comp at collocation index yi from a
// single-rank channel solver and encodes it as a grayscale PNG, linearly
// mapping [min, max] to [0, 255]. Returns the PNG bytes and the frame
// descriptor, or an error naming the component and step if any value of
// the plane is not finite: a diverged run has no picture to show.
func RenderPlane(s *core.Solver, comp core.PhysicalComponent, yi, step int) ([]byte, PlaneFrame, error) {
	plane := s.PhysicalPlane(comp, yi)
	h := len(plane)
	w := 0
	if h > 0 {
		w = len(plane[0])
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range plane {
		for _, v := range row {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	frame := PlaneFrame{Step: step, Comp: compNames[comp], Yi: yi, Min: lo, Max: hi, W: w, H: h}
	// min and max carry a NaN through, and an infinity is an extremum.
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, frame, fmt.Errorf("plane %s at y index %d, step %d: non-finite values (min %g, max %g)",
			frame.Comp, yi, step, lo, hi)
	}
	scale := 0.0
	if hi > lo {
		scale = 255 / (hi - lo)
	}
	img := image.NewGray(image.Rect(0, 0, w, h))
	for z, row := range plane {
		for x, v := range row {
			img.SetGray(x, z, color.Gray{Y: uint8(math.Round(min(255, max(0, (v-lo)*scale))))})
		}
	}
	var buf bytes.Buffer
	// Encoding a tiny grayscale image cannot fail into a bytes.Buffer.
	_ = png.Encode(&buf, img)
	return buf.Bytes(), frame, nil
}

// NearWallIndex is the collocation point closest to y+ = 10 above the
// lower wall (y = -1) at friction Reynolds number retau, where Figure 8
// shows the near-wall streaks.
func NearWallIndex(pts []float64, retau float64) int {
	target := -1 + 10/retau
	best, bi := math.Inf(1), 1
	for i, y := range pts {
		if d := math.Abs(y - target); d < best {
			best, bi = d, i
		}
	}
	return bi
}
