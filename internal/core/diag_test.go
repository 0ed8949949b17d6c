package core

import (
	"fmt"
	"math"
	"testing"

	"channeldns/internal/mpi"
)

// poisonSlot returns the first local slot that is neither the mean nor a z
// Nyquist mode.
func poisonSlot(b *base) int {
	for w := 0; w < b.nw; w++ {
		ikx, ikz := b.modeOf(w)
		if !b.G.IsNyquistZ(ikz) && (ikx != 0 || ikz != 0) {
			return w
		}
	}
	panic("no advanced local mode")
}

// TestMaxDiagnosticsSeeNaN: one NaN coefficient on the last rank makes every
// max-type diagnostic NaN on every rank, serially and at 1x2. A fold by
// comparison (keep a only when a > m) drops a NaN and reports the state as
// healthy. The channel's CFL estimate is checked on both of its paths: the
// spectral bound before any step, the harvested physical maxima after one.
func TestMaxDiagnosticsSeeNaN(t *testing.T) {
	nan := complex(math.NaN(), 0)
	for _, np := range []int{1, 2} {
		t.Run(fmt.Sprintf("channel-1x%d", np), func(t *testing.T) {
			cfg := Config{Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1, PA: 1, PB: np}
			mpi.Run(np, func(c *mpi.Comm) {
				s, err := New(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				s.InitDefault(0.3, 7)
				if c.Rank() == np-1 {
					s.cv[poisonSlot(&s.base)][0] = nan
				}
				for _, d := range []struct {
					name string
					f    func() float64
				}{
					{"BCResidual", s.BCResidual},
					{"CFLEstimate before a step", s.CFLEstimate},
					{"CFLEstimate after a step", func() float64 { s.StepOnce(); return s.CFLEstimate() }},
				} {
					if v := d.f(); !math.IsNaN(v) {
						t.Errorf("rank %d: %s = %g, want NaN", c.Rank(), d.name, v)
					}
				}
			})
		})
		t.Run(fmt.Sprintf("isotropic-1x%d", np), func(t *testing.T) {
			cfg := Config{Workload: WorkloadIsotropic, Nx: 16, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, PA: 1, PB: np}
			mpi.Run(np, func(c *mpi.Comm) {
				s, err := NewIsotropic(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				s.InitDefault(0.3, 7)
				if c.Rank() == np-1 {
					s.cu[poisonSlot(&s.base)][1] = nan
				}
				if v := s.DivergenceResidual(); !math.IsNaN(v) {
					t.Errorf("rank %d: DivergenceResidual = %g, want NaN", c.Rank(), v)
				}
			})
		})
	}
}
