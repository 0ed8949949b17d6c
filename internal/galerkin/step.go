package galerkin

import (
	"channeldns/internal/banded"
	"channeldns/internal/core"
)

// StepOnce advances the Galerkin solution one full time step.
func (s *Solver) StepOnce() {
	dt := s.Cfg.Dt
	s.ensureOps(dt)
	for sub := 0; sub < 3; sub++ {
		fhg, fhv, mFx, mFz := s.nonlinearProjections()
		s.advanceSubstep(sub, dt, fhg, fhv, mFx, mFz)
		s.fhgPrev, s.fhvPrev = fhg, fhv
		if s.ownsMean {
			s.meanFxPrev, s.meanFzPrev = mFx, mFz
		}
	}
	s.Time += dt
	s.Step++
}

// Advance runs n full time steps.
func (s *Solver) Advance(n int) {
	for i := 0; i < n; i++ {
		s.StepOnce()
	}
}

func (s *Solver) advanceSubstep(sub int, dt float64, fhg, fhv [][]complex128, mFx, mFz []float64) {
	n := s.Cfg.Ny
	ga := core.SMR91.Gamma[sub]
	ze := core.SMR91.Zeta[sub]
	a := core.SMR91.Alpha[sub] * dt * s.nu

	s.pool().ForBlocks(s.nw, func(wlo, whi int) {
		scratch := make([]complex128, n)
		rhsO := make([]complex128, s.ng)
		rhsV := make([]complex128, s.nv)
		for w := wlo; w < whi; w++ {
			op := s.ops[w]
			if op == nil {
				continue
			}
			k2 := op.k2
			// omega: rhs = [M - a(K + k2 M)] c + dt*(ga*Fhg + ze*FhgPrev).
			weakOp{lo: 1, n: n,
				mats: []*banded.Real{s.wm.m, s.wm.k},
				cfs:  []float64{1 - a*k2, -a}}.apply(rhsO, s.cw[w], scratch)
			for i := 0; i < s.ng; i++ {
				rhsO[i] += complex(dt, 0) * (complex(ga, 0)*fhg[w][i] + complex(ze, 0)*s.fhgPrev[w][i])
			}
			op.lhsO[sub].SolveComplex(rhsO)
			copy(s.cw[w], rhsO)

			// v: rhs = [G - a S] c - dt*(ga*Fhv + ze*FhvPrev).
			weakOp{lo: 2, n: n,
				mats: []*banded.Real{s.wm.m, s.wm.k, s.wm.q},
				cfs:  []float64{k2 - a*k2*k2, 1 - 2*a*k2, -a}}.apply(rhsV, s.cv[w], scratch)
			for i := 0; i < s.nv; i++ {
				rhsV[i] -= complex(dt, 0) * (complex(ga, 0)*fhv[w][i] + complex(ze, 0)*s.fhvPrev[w][i])
			}
			op.lhsV[sub].SolveComplex(rhsV)
			copy(s.cv[w], rhsV)
		}
	})

	if s.ownsMean {
		f := s.Cfg.Forcing
		scratch := make([]float64, n)
		adv := func(c []float64, fh, fhPrev []float64, forcing float64) {
			rhs := make([]float64, s.ng)
			weakOp{lo: 1, n: n,
				mats: []*banded.Real{s.wm.m, s.wm.k},
				cfs:  []float64{1, -a}}.applyReal(rhs, c, scratch)
			for i := 0; i < s.ng; i++ {
				rhs[i] += dt * (ga*(fh[i]+forcing*s.bInt[i]) + ze*(fhPrev[i]+forcing*s.bInt[i]))
			}
			s.meanOp[sub].SolveReal(rhs)
			copy(c, rhs)
		}
		adv(s.meanU, mFx, s.meanFxPrev, f)
		adv(s.meanW, mFz, s.meanFzPrev, 0)
	}
}
