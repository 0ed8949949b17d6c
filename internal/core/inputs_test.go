package core

import (
	"fmt"
	"math/cmplx"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/parfft"
)

// TestExcursionInputsWritten: a pass leaves its products in the excursion's
// input fields, so whatever fills them for the next pass must write every
// element, the z Nyquist lines and the lines the mean mode does not define
// included. Each filler — the channel velocities with and without their y
// derivatives, the scalar's carried inputs (theta behind the velocities) and
// the isotropic inverse y transform — runs on inputs set to NaN and must
// leave none, serially and on 1x2, where one rank does not own the mean. make
// race runs it on a two-worker pool.
func TestExcursionInputsWritten(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {1, 2}} {
		pa, pb := g[0], g[1]
		t.Run(fmt.Sprintf("%dx%d", pa, pb), func(t *testing.T) {
			pool := par.NewPool(2)
			defer pool.Close()
			cfg := Config{Nx: 8, Ny: 17, Nz: 8, ReTau: 180, Dt: 1e-3, Forcing: 1, PA: pa, PB: pb, Pool: pool}
			iso := Config{Workload: WorkloadIsotropic, Nx: 8, Ny: 8, Nz: 8, ReTau: 180, Dt: 1e-3, PA: pa, PB: pb, Pool: pool}
			mpi.Run(pa*pb, func(c *mpi.Comm) {
				check := func(name string, exc *parfft.Excursion, n int, fill func()) {
					in := exc.In(n)
					for _, f := range in {
						for i := range f {
							f[i] = cmplx.NaN()
						}
					}
					fill()
					left := 0
					for _, f := range in {
						for _, v := range f {
							if cmplx.IsNaN(v) {
								left++
							}
						}
					}
					if left > 0 {
						t.Errorf("rank %d %s: %d of the %d input fields' elements left unwritten", c.Rank(), name, left, n)
					}
				}
				s, err := New(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				s.InitDefault(0.1, 1)
				check("velocityValues(3)", s.exc, 3, func() { s.velocityValues(3, nil) })
				check("velocityValues(6)", s.exc, 6, func() { s.velocityValues(6, nil) })

				scfg := cfg
				scfg.Nonlinear = FormConvective
				sc, err := NewScalar(c, scfg)
				if err != nil {
					t.Error(err)
					return
				}
				sc.InitDefault(0.1, 1)
				sp, run := sc.carrier, &sc.carried
				check("scalar carried", sc.exc, run.In, func() { sc.velocityValues(sp.In, sc.exc.In(run.In)[sp.In]) })

				is, err := NewIsotropic(c, iso)
				if err != nil {
					t.Error(err)
					return
				}
				is.InitDefault(0.3, 1)
				check("isotropic", is.exc, 3, is.velocityValues)
			})
		})
	}
}
