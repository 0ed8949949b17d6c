package core

import (
	"math"
	"testing"

	"channeldns/internal/mpi"
)

// Physics and state tests of the passive-scalar workload.

// TestScalarConductionEquilibrium: with no velocity fluctuations the
// conduction profile Theta(y) = -y is a steady solution of the mean scalar
// equation (B-splines represent linears exactly, so the discrete steady
// state is exact to roundoff): the profile, the unit wall flux and the zero
// scalar variance must all survive time stepping.
func TestScalarConductionEquilibrium(t *testing.T) {
	cfg := Config{Workload: WorkloadScalar, Nx: 16, Ny: 17, Nz: 16,
		ReTau: 180, Dt: 1e-3, Forcing: 1, Prandtl: 0.71}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := NewScalar(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if want := (1.0 / 180) / 0.71; math.Abs(s.Kappa()-want) > 1e-15 {
			t.Errorf("kappa = %g, want %g", s.Kappa(), want)
		}
		s.SetLaminar() // mean flow only; u theta is x-independent, so it cannot stir
		s.SetConduction()
		Advance(s, 5)
		if v := s.ScalarVariance(); v > 1e-24 {
			t.Errorf("scalar variance %g grew from an unperturbed field", v)
		}
		if q := s.WallScalarFlux(); math.Abs(q-1) > 1e-10 {
			t.Errorf("wall scalar flux %g, want 1 (pure conduction)", q)
		}
		prof := s.MeanScalarProfile()
		for i, y := range s.grev {
			if math.Abs(prof[i]-(-y)) > 1e-10 {
				t.Errorf("mean scalar at y=%g: %g, want %g", y, prof[i], -y)
				return
			}
		}
	})
}

// TestScalarVarianceDecays: scalar fluctuations between fixed-temperature
// walls, advected by a decaying velocity field with no production
// mechanism strong enough to offset diffusion at this amplitude, must lose
// variance — the discrete advection term redistributes but the
// wall-flux-free fluctuation field has no source.
func TestScalarVarianceDecays(t *testing.T) {
	cfg := Config{Workload: WorkloadScalar, Nx: 16, Ny: 17, Nz: 16,
		ReTau: 180, Dt: 1e-3, Forcing: 1, Prandtl: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := NewScalar(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.InitDefault(0.05, 2)
		v0 := s.ScalarVariance()
		if v0 <= 0 {
			t.Errorf("initial variance %g, want positive", v0)
			return
		}
		Advance(s, 10)
		if v := s.ScalarVariance(); v >= v0 || v <= 0 || math.IsNaN(v) {
			t.Errorf("variance after 10 steps %g, want in (0, %g)", v, v0)
		}
	})
}

// TestScalarCheckpointRoundTrip: the scalar state rides the extended
// checkpoint block (theta + its previous-substep term, mean profile + its
// term on the owner rank) — a restored run continues bit-identically.
// 1x2 ranks so one shard carries the mean block and one does not.
func TestScalarCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Workload: WorkloadScalar, Nx: 16, Ny: 17, Nz: 16,
		ReTau: 180, Dt: 1e-3, Forcing: 1, PA: 1, PB: 2}
	dir := t.TempDir()
	mpi.Run(2, func(c *mpi.Comm) {
		s, err := NewScalar(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.InitDefault(0.3, 1)
		Advance(s, 2)
		store := s.NewCheckpointStore(dir, 2)
		if _, err := s.WriteCheckpoint(store); err != nil {
			t.Errorf("write: %v", err)
			return
		}

		r, err := NewScalar(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		name, err := r.ResumeLatest(store)
		if err != nil {
			t.Errorf("resume: %v", err)
			return
		}
		if name == "" || r.Step != s.Step || r.Time != s.Time {
			t.Errorf("resumed %q at step %d t=%g, want step %d t=%g",
				name, r.Step, r.Time, s.Step, s.Time)
			return
		}
		// Exact trajectory continuation proves both the velocity state and
		// the scalar extension survived.
		Advance(s, 2)
		Advance(r, 2)
		for w := 0; w < s.nw; w++ {
			for iy := range s.cth[w] {
				if s.cth[w][iy] != r.cth[w][iy] {
					t.Errorf("rank %d theta w=%d iy=%d: original %v restored %v",
						c.Rank(), w, iy, s.cth[w][iy], r.cth[w][iy])
					return
				}
				if s.cv[w][iy] != r.cv[w][iy] || s.cw[w][iy] != r.cw[w][iy] {
					t.Errorf("rank %d velocity w=%d iy=%d diverged after resume", c.Rank(), w, iy)
					return
				}
			}
		}
		if s.ownsMean {
			for i := range s.meanTh {
				if s.meanTh[i] != r.meanTh[i] {
					t.Errorf("mean scalar coef %d: original %v restored %v", i, s.meanTh[i], r.meanTh[i])
					return
				}
			}
		}
	})
}

// Kappa returns the scalar diffusivity nu/Prandtl.
func (t *ScalarSolver) Kappa() float64 { return t.kappa }

// MeanScalarProfile returns the mean scalar at the collocation points,
// broadcast from the owner rank to all ranks.
func (t *ScalarSolver) MeanScalarProfile() []float64 {
	s := t.Solver
	vals := make([]float64, s.Cfg.Ny)
	if s.ownsMean {
		s.colloc.MulReal(0, vals, t.meanTh)
	}
	return mpi.Bcast(s.World(), 0, vals)
}
