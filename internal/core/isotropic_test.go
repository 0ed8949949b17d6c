package core

import (
	"math"
	"testing"

	"channeldns/internal/mpi"
)

// Physics and state tests of the isotropic-turbulence workload.

// TestIsotropicDivergenceFree: the initial projection and the per-substep
// pressure projection keep the field spectrally divergence-free, and with
// no forcing the kinetic energy can only decay.
func TestIsotropicDivergenceFree(t *testing.T) {
	cfg := Config{Workload: WorkloadIsotropic, Nx: 16, Ny: 16, Nz: 16,
		ReTau: 180, Dt: 1e-3}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := NewIsotropic(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.InitDefault(0.3, 1)
		e0 := s.TotalEnergy()
		if e0 <= 0 {
			t.Errorf("initial energy %g, want positive", e0)
			return
		}
		if div := s.DivergenceResidual(); div > 1e-12 {
			t.Errorf("initial divergence residual %g", div)
		}
		prev := e0
		for i := 0; i < 3; i++ {
			s.StepOnce()
			if div := s.DivergenceResidual(); div > 1e-10 {
				t.Errorf("step %d: divergence residual %g", s.Step, div)
			}
			e := s.TotalEnergy()
			if e >= prev {
				t.Errorf("step %d: energy %g did not decay from %g", s.Step, e, prev)
			}
			prev = e
		}
	})
}

// TestIsotropicViscousDecayExact: with the nonlinear term disabled the IMEX
// advance is diagonal, so every retained mode must decay by exactly
//
//	F(k2) = prod_s (1 - alpha_s dt nu k2) / (1 + beta_s dt nu k2)
//
// per step — the discrete analog of exp(-nu k2 dt) the scheme converges to.
func TestIsotropicViscousDecayExact(t *testing.T) {
	cfg := Config{Workload: WorkloadIsotropic, Nx: 16, Ny: 16, Nz: 16,
		ReTau: 180, Dt: 1e-3, DisableNonlinear: true}
	const steps = 4
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := NewIsotropic(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.InitDefault(0.5, 3)
		init := make([][][]complex128, 3)
		for f, field := range [][][]complex128{s.cu, s.cv, s.cw} {
			init[f] = make([][]complex128, s.nw)
			for w := range field {
				init[f][w] = append([]complex128(nil), field[w]...)
			}
		}
		Advance(s, steps)
		nu := s.Nu()
		dt := cfg.Dt
		for w := 0; w < s.nw; w++ {
			ikx, ikz := s.modeOf(w)
			if s.G.IsNyquistZ(ikz) {
				continue
			}
			kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
			for j := 0; j < cfg.Ny; j++ {
				if !s.kyKeep[j] {
					continue
				}
				k2 := kx*kx + s.ky[j]*s.ky[j] + kz*kz
				if k2 == 0 {
					continue
				}
				factor := 1.0
				for sub := 0; sub < 3; sub++ {
					factor *= (1 - rkAlpha[sub]*dt*nu*k2) / (1 + rkBeta[sub]*dt*nu*k2)
				}
				factor = math.Pow(factor, steps)
				for f, field := range [][][]complex128{s.cu, s.cv, s.cw} {
					want := init[f][w][j] * complex(factor, 0)
					got := field[w][j]
					if d := cmplxAbs(got - want); d > 1e-13*(1+cmplxAbs(want)) {
						t.Errorf("comp %d mode (%d,%d) j=%d: got %v, want %v (k2=%g)",
							f, ikx, ikz, j, got, want, k2)
						return
					}
				}
			}
		}
	})
}

func cmplxAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}

// TestIsotropicCheckpointRoundTrip: the extended-field checkpoint captures
// the complete isotropic state — a restored run continues bit-identically
// to the run that wrote it.
func TestIsotropicCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Workload: WorkloadIsotropic, Nx: 16, Ny: 16, Nz: 16,
		ReTau: 180, Dt: 1e-3, PA: 2, PB: 1}
	dir := t.TempDir()
	mpi.Run(2, func(c *mpi.Comm) {
		s, err := NewIsotropic(c, cfg)
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

		r, err := NewIsotropic(c, cfg)
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
		// Both solvers advance from the same state: trajectories must agree
		// exactly, which only happens if every field (including the
		// previous-substep nonlinear terms) survived the round trip.
		Advance(s, 2)
		Advance(r, 2)
		for f, pair := range [][2][][]complex128{{s.cu, r.cu}, {s.cv, r.cv}, {s.cw, r.cw}} {
			for w := range pair[0] {
				for j := range pair[0][w] {
					if pair[0][w][j] != pair[1][w][j] {
						t.Errorf("rank %d comp %d w=%d j=%d: original %v restored %v",
							c.Rank(), f, w, j, pair[0][w][j], pair[1][w][j])
						return
					}
				}
			}
		}
	})
}
