package core

import (
	"time"

	"channeldns/internal/telemetry"
)

// Time advance, paper §2.1: three IMEX Runge-Kutta substeps per step.
// Each substep solves, for every wavenumber, the pair of two-point boundary
// value problems of Eq. (3) for omega_y-hat and phi-hat with the customized
// banded solver, then recovers v-hat from phi-hat through Eq. (4) with the
// influence-matrix correction enforcing v = v' = 0 at the walls, and finally
// advances the mean-flow profiles.

// StepOnce advances the solution by one full time step (three substeps).
func (s *Solver) StepOnce() {
	t0 := time.Now()
	dt := s.Cfg.Dt
	s.ensureOps(dt)
	s.trc.BeginStep(int64(s.Step))
	for sub := 0; sub < 3; sub++ {
		s.trc.SetStage(sub)
		hg, hv, mHx, mHz := s.nonlinearTerms()
		s.advanceSubstep(sub, dt, hg, hv, mHx, mHz)
		// Swap current and previous nonlinear buffers instead of
		// reallocating; nonlinearTerms fully rewrites the current set.
		s.hgPrev, s.ws.hgCur = hg, s.hgPrev
		s.hvPrev, s.ws.hvCur = hv, s.hvPrev
		if s.ownsMean {
			s.meanHxPrev, s.ws.meanHxCur = mHx, s.meanHxPrev
			s.meanHzPrev, s.ws.meanHzCur = mHz, s.meanHzPrev
		}
	}
	s.trc.SetStage(-1)
	s.trc.EndStep(t0, time.Now())
	s.Time += dt
	s.Step++
	s.tel.StepDone(time.Since(t0))
	s.tel.AddFlops(s.stepFlops)
}

func (s *Solver) advanceSubstep(sub int, dt float64, hg, hv [][]complex128, mHx, mHz []float64) {
	sp := s.tel.Begin(telemetry.PhaseViscousSolve)
	ny := s.Cfg.Ny
	ga := rkGamma[sub]
	ze := rkZeta[sub]
	al := rkAlpha[sub] * dt * s.nu

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

			// --- omega_y advance ---
			s.b0.MulVecComplex(vals, s.cw[w]) // B0*c = values of omega
			s.applyHelmValues(lap, s.cw[w], k2, helmTmp)
			for i := 0; i < ny; i++ {
				rhs[i] = vals[i] + complex(al, 0)*lap[i] +
					complex(dt, 0)*(complex(ga, 0)*hg[w][i]+complex(ze, 0)*s.hgPrev[w][i])
			}
			rhs[0], rhs[ny-1] = 0, 0 // omega(+-1) = 0
			op.lhs[sub].SolveComplex(rhs)
			copy(s.cw[w], rhs)

			// --- phi advance ---
			// phi values at collocation points: (B2 - k2*B0)*c_v;
			// phi spline coefficients: B0^{-1} of those values.
			s.applyHelmValues(vals, s.cv[w], k2, helmTmp) // vals = phi values
			copy(cphi, vals)
			s.b0fac.SolveComplex(cphi)
			s.applyHelmValues(lap, cphi, k2, helmTmp) // (d2-k2) phi values
			for i := 0; i < ny; i++ {
				rhs[i] = vals[i] + complex(al, 0)*lap[i] +
					complex(dt, 0)*(complex(ga, 0)*hv[w][i]+complex(ze, 0)*s.hvPrev[w][i])
			}
			rhs[0], rhs[ny-1] = 0, 0      // provisional phi(+-1) = 0
			op.lhs[sub].SolveComplex(rhs) // rhs = c_phi (provisional)

			// --- v from phi (Eq. 4) with v(+-1) = 0 ---
			s.b0.MulVecComplex(vals, rhs) // phi values
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
		s.advanceMean(sub, dt, mHx, mHz)
	}
	sp.End()
}

// advanceMean advances the kx = kz = 0 profiles:
//
//	dU/dt = F - d<uv>/dy + nu*d2U/dy2,   dW/dt = -d<vw>/dy + nu*d2W/dy2
//
// with U(+-1) = W(+-1) = 0 and F the imposed pressure gradient.
func (s *Solver) advanceMean(sub int, dt float64, mHx, mHz []float64) {
	ny := s.Cfg.Ny
	ga := rkGamma[sub]
	ze := rkZeta[sub]
	al := rkAlpha[sub] * dt * s.nu
	f := s.Cfg.Forcing

	adv := func(c []float64, h, hPrev []float64, forcing float64) {
		rhs := s.ws.meanS0
		lap := s.ws.meanS1
		s.b0.MulVec(rhs, c)
		s.b2.MulVec(lap, c)
		for i := 0; i < ny; i++ {
			rhs[i] += al*lap[i] + dt*(ga*(h[i]+forcing)+ze*(hPrev[i]+forcing))
		}
		rhs[0], rhs[ny-1] = 0, 0
		s.meanOps[sub].SolveReal(rhs)
		copy(c, rhs)
	}
	adv(s.meanU, mHx, s.meanHxPrev, f)
	adv(s.meanW, mHz, s.meanHzPrev, 0)
}
