// Command visualize regenerates the qualitative flow visualizations of the
// paper (Figures 7 and 8): an instantaneous streamwise-velocity plane and
// the spanwise vorticity near the wall, rendered as PGM images from a short
// turbulent channel run.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/server"
)

func main() {
	def := server.Defaults()
	var (
		nx    = flag.Int("nx", 48, "Fourier modes in x")
		ny    = flag.Int("ny", 65, "B-spline basis size")
		nz    = flag.Int("nz", 48, "Fourier modes in z")
		retau = flag.Float64("retau", def.ReTau, "friction Reynolds number")
		steps = flag.Int("steps", 400, "spin-up steps before rendering")
		dt    = flag.Float64("dt", 4e-4, "time step")
		outU  = flag.String("u", "figure7_u.pgm", "output for the u plane (Figure 7)")
		outW  = flag.String("omegaz", "figure8_omegaz.pgm", "output for the omega_z plane (Figure 8)")
	)
	flag.Parse()

	cfg := core.Config{Nx: *nx, Ny: *ny, Nz: *nz, ReTau: *retau, Dt: *dt,
		Forcing: 1, Pool: par.NewPool(0)}
	var err error
	mpi.Run(1, func(c *mpi.Comm) {
		var s *core.Solver
		s, err = core.New(c, cfg)
		if err != nil {
			return
		}
		s.SetLaminar()
		s.Perturb(def.Perturb, 3, 3, 7)
		fmt.Printf("spinning up %d steps...\n", *steps)
		core.AdvanceAdaptive(s, *steps, 0.8, 5)
		fmt.Printf("t = %.3f, E = %.4f, u_tau = %.3f\n", s.Time, s.TotalEnergy(), s.FrictionVelocity())

		// Figure 7: streamwise velocity on a mid-height plane.
		mid := *ny / 2
		if err = writePGM(*outU, s.PhysicalPlane(core.CompU, mid)); err != nil {
			return
		}
		fmt.Printf("wrote %s (u at y = %.3f)\n", *outU, s.CollocationPoints()[mid])

		// Figure 8: spanwise vorticity near the wall (first interior point
		// cluster, about y+ ~ 10 for this resolution).
		near := nearWallIndex(s.CollocationPoints(), *retau)
		if err = writePGM(*outW, s.PhysicalPlane(core.CompOmegaZ, near)); err != nil {
			return
		}
		fmt.Printf("wrote %s (omega_z at y = %.3f)\n", *outW, s.CollocationPoints()[near])
	})
	if err != nil {
		log.Fatal(err)
	}
}

// nearWallIndex picks the collocation point closest to y+ = 10.
func nearWallIndex(pts []float64, retau float64) int {
	target := -1 + 10/retau
	best, bi := math.Inf(1), 1
	for i, y := range pts {
		if d := math.Abs(y - target); d < best {
			best, bi = d, i
		}
	}
	return bi
}

// writePGM renders a plane as an 8-bit grayscale PGM, normalized to the
// plane's range.
func writePGM(path string, plane [][]float64) error {
	h := len(plane)
	if h == 0 {
		return fmt.Errorf("empty plane")
	}
	w := len(plane[0])
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range plane {
		for _, v := range row {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "P5\n%d %d\n255\n", w, h); err != nil {
		return err
	}
	buf := make([]byte, w)
	for _, row := range plane {
		for i, v := range row {
			buf[i] = byte(255 * (v - lo) / (hi - lo))
		}
		if _, err := f.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
