package core

import (
	"channeldns/internal/telemetry"
)

// Time advance, paper §2.1: three IMEX Runge-Kutta substeps per step.
// Each substep solves, for every wavenumber, the pair of two-point boundary
// value problems of Eq. (3) for omega_y-hat and phi-hat with the customized
// banded solver, then recovers v-hat from phi-hat through Eq. (4) with the
// influence-matrix correction enforcing v = v' = 0 at the walls, and finally
// advances the mean-flow profiles. Every transported quantity goes through
// the same Helmholtz line advance: lineRHS and a solve against the cached
// left-hand side for a complex mode line (omega_y, phi, theta),
// advanceMeanLine for a real mean profile (U, W, Theta).

// StepOnce advances the solution by one full time step (three substeps).
func (s *Solver) StepOnce() {
	dt := s.beginStep()
	s.ensureOps(dt)
	for sub := 0; sub < 3; sub++ {
		s.trc.SetStage(sub)
		hg, hv, mHx, mHz := s.nonlinearTerms(sub == 2)
		s.advanceSubstep(sub, dt, hg, hv, mHx, mHz)
		s.swapNonlinear(hg, hv, mHx, mHz)
	}
	s.endStep(dt)
}

// swapNonlinear makes the substep's nonlinear terms the previous-substep set
// and hands the old set back to the arena instead of reallocating;
// nonlinearTerms fully rewrites the current set.
func (s *Solver) swapNonlinear(hg, hv [][]complex128, mHx, mHz []float64) {
	s.hgPrev, s.ws.hgCur = hg, s.hgPrev
	s.hvPrev, s.ws.hvCur = hv, s.hvPrev
	if s.ownsMean {
		s.meanHxPrev, s.ws.meanHxCur = mHx, s.meanHxPrev
		s.meanHzPrev, s.ws.meanHzCur = mHz, s.meanHzPrev
	}
}

// lineRHS assembles the right-hand side of the IMEX substep of one mode line
// of diffusivity o.diff, paper Eq. (3) with homogeneous Dirichlet walls: given
// the line's collocation values vals and those of its Helmholtz operator lap,
//
//	rhs = vals + alpha*dt*d*lap + dt*(gamma*h + zeta*hPrev)
//
// which a solve against o.lhs[s.ops[w].set][sub] turns into the new
// coefficients.
func (o *implicitOps) lineRHS(sub int, dt float64, rhs, vals, lap, h, hPrev []complex128) {
	al := complex(smr91.Alpha[sub]*dt*o.diff, 0)
	ga, ze, cdt := complex(smr91.Gamma[sub], 0), complex(smr91.Zeta[sub], 0), complex(dt, 0)
	for i := range rhs {
		rhs[i] = vals[i] + al*lap[i] + cdt*(ga*h[i]+ze*hPrev[i])
	}
	rhs[0], rhs[len(rhs)-1] = 0, 0
}

// advanceRHS overwrites the spline coefficients c of one Helmholtz-transported
// mode line (omega_y, theta) with the right-hand side of substep sub, on the
// worker's second and third scratch lines.
func (s *Solver) advanceRHS(o *implicitOps, w, sub int, dt float64, c, h, hPrev []complex128, wk *wsWorker) {
	vals, lap := wk.ln[1], wk.ln[2]
	s.colloc.Mul2(0, 2, vals, lap, c) // B0*c = values of the line, B2*c
	ck2 := complex(s.ops[w].k2, 0)
	for i := range lap {
		lap[i] -= ck2 * vals[i] // (B2 - k2*B0)*c
	}
	o.lineRHS(sub, dt, c, vals, lap, h, hPrev)
}

// advanceMeanLine advances one real kx = kz = 0 profile through substep sub
// in place: the same Helmholtz problem at k2 = 0, with a uniform forcing added
// to the explicit term and the wall values lo, hi imposed.
func (s *Solver) advanceMeanLine(o *implicitOps, sub int, dt float64, c, h, hPrev []float64, forcing, lo, hi float64) {
	ga, ze := smr91.Gamma[sub], smr91.Zeta[sub]
	al := smr91.Alpha[sub] * dt * o.diff
	rhs, lap := s.ws.meanS0, s.ws.meanS1
	s.colloc.MulReal(0, rhs, c)
	s.colloc.MulReal(2, lap, c)
	for i := range rhs {
		rhs[i] += al*lap[i] + dt*(ga*(h[i]+forcing)+ze*(hPrev[i]+forcing))
	}
	rhs[0], rhs[len(rhs)-1] = lo, hi
	o.mean[sub].SolveReal(rhs)
	copy(c, rhs)
}

func (s *Solver) advanceSubstep(sub int, dt float64, hg, hv [][]complex128, mHx, mHz []float64) {
	sp := s.tel.Begin(telemetry.PhaseViscousSolve)
	ny := s.Cfg.Ny
	visc := s.imp[0]

	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		wk := &s.ws.workers[blk]
		rhs := wk.ln[0]
		vals := wk.ln[1]
		lap := wk.ln[2]
		cphi := wk.ln[3]
		helmTmp := wk.ln[4]
		for w := wlo; w < whi; w++ {
			op := s.ops[w]
			if op == nil {
				continue // mean or Nyquist
			}
			k2 := op.k2
			s.advanceRHS(visc, w, sub, dt, s.cw[w], hg[w], s.hgPrev[w], wk) // omega(+-1) = 0

			// --- phi advance ---
			// phi values at collocation points: (B2 - k2*B0)*c_v;
			// phi spline coefficients: B0^{-1} of those values.
			s.applyHelmValues(vals, s.cv[w], k2, helmTmp) // vals = phi values
			copy(cphi, vals)
			s.b0fac.SolveComplex(cphi)
			s.applyHelmValues(lap, cphi, k2, helmTmp) // (d2-k2) phi values
			visc.lineRHS(sub, dt, rhs, vals, lap, hv[w], s.hvPrev[w])

			// omega_y and phi solve against the same left-hand side: one pass
			// over its factors leaves c_omega in place and c_phi, with
			// provisional phi(+-1) = 0, in rhs.
			visc.lhs[op.set][sub].SolveComplex2(s.cw[w], rhs)

			// --- v from phi (Eq. 4) with v(+-1) = 0 ---
			s.colloc.Mul(0, vals, rhs) // phi values
			vals[0], vals[ny-1] = 0, 0
			op.helm.SolveComplex(vals) // vals = c_v (provisional)

			// --- influence-matrix correction: enforce v'(+-1) = 0 ---
			lo, hi := s.wallDeriv(vals)
			m := op.minv[sub]
			a := -(complex(m[0][0], 0)*lo + complex(m[0][1], 0)*hi)
			b := -(complex(m[1][0], 0)*lo + complex(m[1][1], 0)*hi)
			cv1, cv2 := op.cv1[sub], op.cv2[sub]
			cvw := s.cv[w]
			for i := 0; i < ny; i++ {
				cvw[i] = vals[i] + a*complex(cv1[i], 0) + b*complex(cv2[i], 0)
			}
		}
	})

	if s.ownsMean {
		// dU/dt = F - d<uv>/dy + nu*d2U/dy2, dW/dt = -d<vw>/dy + nu*d2W/dy2
		// with U(+-1) = W(+-1) = 0 and F the imposed pressure gradient.
		s.advanceMeanLine(visc, sub, dt, s.meanU, mHx, s.meanHxPrev, s.Cfg.Forcing, 0, 0)
		s.advanceMeanLine(visc, sub, dt, s.meanW, mHz, s.meanHzPrev, 0, 0, 0)
	}
	sp.End()
}
