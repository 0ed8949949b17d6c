package core

import (
	"math"
	"testing"

	"channeldns/internal/mpi"
)

// fluctuationEnergy splits TotalEnergy into mean and fluctuation parts.
func fluctuationEnergy(s *Solver) (eMean, eFluct float64) {
	e := s.TotalEnergy()
	um := s.MeanProfile()
	sq := make([]float64, len(um))
	for i, v := range um {
		sq[i] = v * v
	}
	coef := s.B.Interpolate(sq)
	w := s.B.IntegrationWeights()
	for i := range w {
		eMean += w[i] * coef[i]
	}
	eMean /= 2
	return eMean, e - eMean
}

// TestSmallPerturbationGrowthBounded: tiny disturbances on the laminar
// profile grow by transient (Orr/lift-up) mechanisms whose energy growth
// rate is bounded by the mean shear; the total energy must not move and the
// fluctuation growth rate must stay well below the shear bound.
func TestSmallPerturbationGrowthBounded(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 33, Nz: 16, ReTau: 180, Dt: 2e-4, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.SetLaminar()
		s.Perturb(1e-6, 2, 2, 3)
		_, ef0 := fluctuationEnergy(s)
		e0 := s.TotalEnergy()
		Advance(s, 100)
		e1 := s.TotalEnergy()
		_, ef1 := fluctuationEnergy(s)
		// Total energy: conserved up to the forcing/dissipation imbalance,
		// which is tiny for the laminar base state.
		if math.Abs(e1-e0)/e0 > 1e-6 {
			t.Errorf("total energy moved: %g -> %g", e0, e1)
		}
		// Fluctuation energy growth rate sigma = ln(E1/E0)/T must be far
		// below the shear bound 2*max|dU/dy| = 2*ReTau.
		T := 100 * cfg.Dt
		sigma := math.Log(ef1/ef0) / T
		if sigma > 2*cfg.ReTau/2 {
			t.Errorf("fluctuation growth rate %g exceeds the shear bound", sigma)
		}
		if math.IsNaN(sigma) || ef1 <= 0 {
			t.Errorf("bad fluctuation energies %g -> %g", ef0, ef1)
		}
	})
}

// TestTransitionEnergyBudget: at adequate wall-normal resolution, a
// finite-amplitude disturbance must ride through the early transient with
// the total energy obeying dE/dt <= Forcing * integral(U) (energy enters
// only through the pressure gradient). This is the regression test for the
// wall-normal aliasing blowup observed at under-resolved Ny. Long; skipped
// with -short.
func TestTransitionEnergyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("transition run is slow")
	}
	cfg := Config{Nx: 32, Ny: 65, Nz: 32, ReTau: 180, Dt: 4e-4, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.SetLaminar()
		s.Perturb(0.3, 3, 3, 3)
		eMax := s.TotalEnergy()
		for b := 0; b < 6; b++ {
			tPrev := s.Time
			ePrev := s.TotalEnergy()
			AdvanceAdaptive(s, 50, 0.8, 5)
			e := s.TotalEnergy()
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Errorf("energy blew up at t=%g", s.Time)
				return
			}
			// Budget: dE <= F * 2*Ub * dt (with margin 2 for transients).
			dtBlock := s.Time - tPrev
			if e-ePrev > 2*2*s.BulkVelocity()*dtBlock+1e-6 {
				t.Errorf("energy budget violated: dE=%g over dt=%g (bound %g)",
					e-ePrev, dtBlock, 2*2*s.BulkVelocity()*dtBlock)
			}
			if e > eMax {
				eMax = e
			}
		}
		if r := s.BCResidual(); r > 1e-8 {
			t.Errorf("BC residual %g after transition transient", r)
		}
	})
}
