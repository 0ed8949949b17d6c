package core

import (
	"fmt"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

// TestCFLEstimatePinned pins CFLEstimate after each of the first three steps
// of every nonlinear form, the scalar and the isotropic workload, serial and
// on 1x2 ranks, to values recorded while every pass of every substep
// harvested its physical maxima. CFLEstimate reads only the maxima of a
// step's last pass, so a harvest skipped anywhere else leaves these bits.
func TestCFLEstimatePinned(t *testing.T) {
	cases := []struct {
		workload string
		form     Form
		pb       int
		cfl      [3]float64
	}{
		{WorkloadChannel, FormDivergence, 1, [3]float64{0x1.7e99db76d2602p-02, 0x1.7ee13e66a5f4bp-02, 0x1.7f1995e0feb3ep-02}},
		{WorkloadChannel, FormDivergence, 2, [3]float64{0x1.7e99db76d2602p-02, 0x1.7ee13e66a5f4bp-02, 0x1.7f1995e0feb3ep-02}},
		{WorkloadChannel, FormSkewSymmetric, 1, [3]float64{0x1.7e99db5fb515ap-02, 0x1.7ee13db9def66p-02, 0x1.7f1994457b90dp-02}},
		{WorkloadChannel, FormSkewSymmetric, 2, [3]float64{0x1.7e99db5fb515ap-02, 0x1.7ee13db9def66p-02, 0x1.7f1994457b90dp-02}},
		{WorkloadChannel, FormConvective, 1, [3]float64{0x1.7e99db489de86p-02, 0x1.7ee13d0696f7fp-02, 0x1.7f199284dd31cp-02}},
		{WorkloadChannel, FormConvective, 2, [3]float64{0x1.7e99db489de86p-02, 0x1.7ee13d0696f7fp-02, 0x1.7f199284dd31cp-02}},
		{WorkloadScalar, FormDivergence, 1, [3]float64{0x1.7e99db76d2602p-02, 0x1.7ee13e66a5f4bp-02, 0x1.7f1995e0feb3ep-02}},
		{WorkloadScalar, FormDivergence, 2, [3]float64{0x1.7e99db76d2602p-02, 0x1.7ee13e66a5f4bp-02, 0x1.7f1995e0feb3ep-02}},
		{WorkloadIsotropic, FormDivergence, 1, [3]float64{0x1.1a1dbe40e45e5p-03, 0x1.1a1358f425c92p-03, 0x1.1a018f60c3f47p-03}},
		{WorkloadIsotropic, FormDivergence, 2, [3]float64{0x1.1a1dbe40e45e5p-03, 0x1.1a1358f425c92p-03, 0x1.1a018f60c3f47p-03}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%s-1x%d", tc.workload, tc.form, tc.pb), func(t *testing.T) {
			cfg := Config{Workload: tc.workload, Nonlinear: tc.form,
				Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1, PA: 1, PB: tc.pb}
			if tc.workload == WorkloadIsotropic {
				cfg.Ny, cfg.Forcing = 16, 0
			}
			if tc.pb > 1 {
				cfg.Pool = par.NewPool(2)
			}
			got := make([][3]float64, tc.pb)
			mpi.Run(tc.pb, func(c *mpi.Comm) {
				wl, err := NewWorkload(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				wl.InitDefault(0.3, 7)
				for step := range got[c.Rank()] {
					Advance(wl, 1)
					got[c.Rank()][step] = wl.CFLEstimate()
				}
			})
			for r, cfl := range got {
				for step, v := range cfl {
					if !pinnedEqual(v, tc.cfl[step]) {
						t.Errorf("rank %d: CFL after step %d %x, pinned %x", r, step+1, v, tc.cfl[step])
					}
				}
			}
		})
	}
}
