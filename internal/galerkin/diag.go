package galerkin

import (
	"math"

	"channeldns/internal/banded"
	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// Initial conditions and diagnostics. Profiles are imposed by L2 projection
// onto the reduced trial spaces (the Galerkin-natural counterpart of the
// collocation solver's interpolation).

// massOp returns the factored reduced mass matrix for boundary offset lo.
func (s *Solver) massOp(lo int) *banded.Compact {
	return weakOp{lo: lo, n: s.Cfg.Ny, mats: []*banded.Real{s.wm.m}, cfs: []float64{1}}.factored()
}

// projectReduced L2-projects a function (sampled at quadrature points) onto
// the reduced space with boundary offset lo.
func (s *Solver) projectReduced(f func(y float64) complex128, lo int) []complex128 {
	n := s.Cfg.Ny
	nq := s.qt.NumQuad()
	vals := make([]complex128, nq)
	for qi, y := range s.qt.pts {
		vals[qi] = f(y)
	}
	full := make([]complex128, n)
	s.qt.project(full, vals, 0, 1)
	red := full[lo : n-lo]
	s.massOp(lo).SolveComplex(red)
	return append([]complex128(nil), red...)
}

// SetMeanProfile sets U(y) by L2 projection (owner rank only).
func (s *Solver) SetMeanProfile(f func(y float64) float64) {
	if !s.ownsMean {
		return
	}
	c := s.projectReduced(func(y float64) complex128 { return complex(f(y), 0) }, 1)
	for i := range s.meanU {
		s.meanU[i] = real(c[i])
	}
}

// SetLaminar sets the laminar Poiseuille profile.
func (s *Solver) SetLaminar() {
	re := s.Cfg.ReTau
	s.SetMeanProfile(func(y float64) float64 { return re * (1 - y*y) / 2 })
}

// SetModeV sets v-hat for a locally owned mode by L2 projection onto H^2_0.
func (s *Solver) SetModeV(ikx, ikz int, f func(y float64) complex128) {
	w := s.widx(ikx, ikz)
	if w < 0 {
		return
	}
	copy(s.cv[w], s.projectReduced(f, 2))
}

// SetModeOmega sets omega_y-hat by L2 projection onto H^1_0.
func (s *Solver) SetModeOmega(ikx, ikz int, f func(y float64) complex128) {
	w := s.widx(ikx, ikz)
	if w < 0 {
		return
	}
	copy(s.cw[w], s.projectReduced(f, 1))
}

// Perturb adds wall-compatible disturbances to the modes
// core.PerturbMode admits, with the collocation solver's amplitudes and
// shapes, so cross-solver comparisons start from the same physical state.
func (s *Solver) Perturb(amp float64, kxMax, kzMax int, seed int64) {
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		av, ok := core.PerturbMode(s.G, ikx, ikz, kxMax, kzMax, amp, seed, 0)
		if !ok {
			continue
		}
		ao, _ := core.PerturbMode(s.G, ikx, ikz, kxMax, kzMax, amp, seed, 1)
		cv := s.projectReduced(func(y float64) complex128 {
			q := 1 - y*y
			return av * complex(q*q, 0)
		}, 2)
		co := s.projectReduced(func(y float64) complex128 {
			return ao * complex(1-y*y, 0)
		}, 1)
		for i := range cv {
			s.cv[w][i] += cv[i]
		}
		for i := range co {
			s.cw[w][i] += co[i]
		}
	}
}

// TotalEnergy returns the volume-averaged kinetic energy per unit plan
// area, computed by quadrature over the velocity values (globally reduced).
func (s *Solver) TotalEnergy() float64 {
	nq := s.qt.NumQuad()
	vel := s.velocityAtQuad()
	e := 0.0
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) {
			continue
		}
		wt := 2.0
		if ikx == 0 {
			wt = 1.0
		}
		base := w * nq
		for qi := 0; qi < nq; qi++ {
			q := s.qt.wts[qi]
			for f := 0; f < 3; f++ {
				v := vel[f][base+qi]
				e += wt * q * (real(v)*real(v) + imag(v)*imag(v))
			}
		}
	}
	return mpi.Allreduce(s.World(), mpi.OpSum, []float64{e / 2})[0]
}

// MeanProfileAt evaluates the mean streamwise velocity at arbitrary y
// (broadcast so all ranks can call it with the same points).
func (s *Solver) MeanProfileAt(ys []float64) []float64 {
	full := s.MeanCoefFull()
	out := make([]float64, len(ys))
	for i, y := range ys {
		out[i] = s.B.Eval(full, y)
	}
	return out
}

// EvalV evaluates v-hat for a local mode at y (zero if not owned).
func (s *Solver) EvalV(ikx, ikz int, y float64) complex128 {
	return s.evalFull(s.coefFull(s.cv, 2, ikx, ikz), y)
}

// EvalOmega evaluates omega_y-hat for a local mode at y (zero if not owned).
func (s *Solver) EvalOmega(ikx, ikz int, y float64) complex128 {
	return s.evalFull(s.coefFull(s.cw, 1, ikx, ikz), y)
}

// evalFull evaluates full-basis complex coefficients at y (zero for nil).
func (s *Solver) evalFull(full []complex128, y float64) complex128 {
	if full == nil {
		return 0
	}
	re := make([]float64, len(full))
	im := make([]float64, len(full))
	for i, c := range full {
		re[i], im[i] = real(c), imag(c)
	}
	return complex(s.B.Eval(re, y), s.B.Eval(im, y))
}

// FrictionVelocity returns sqrt(nu*|dU/dy|) at the lower wall.
func (s *Solver) FrictionVelocity() float64 {
	full := s.MeanCoefFull()
	lo, _ := s.B.Domain()
	du := s.B.EvalDeriv(full, lo, 1)
	return math.Sqrt(math.Abs(s.nu * du))
}
