package galerkin

import (
	"channeldns/internal/par"
	"channeldns/internal/parfft"
)

// Nonlinear term evaluation for the Galerkin scheme. Velocities are
// evaluated at the wall-normal quadrature points, carried through the same
// dealiased excursion as the collocation solver (parfft.SixProducts on a
// decomposition with NY = NumQuad), and the results are projected onto the
// test functions by quadrature, with y-derivatives integrated by parts:
//
//	Fhg_i = int B_i [kx*kz*(uu-ww) - (kx^2-kz^2)*uw] + int B_i' Sg
//	Fhv_i = k2 int B_i S - k2 int B_i' vv + int B_i' T + int B_i'' S
//
// with S = i*kx*uv + i*kz*vw, Sg = i*kz*uv - i*kx*vw and
// T = kx^2*uu + 2*kx*kz*uw + kz^2*ww.

func (s *Solver) pool() *par.Pool { return s.Cfg.Pool }

// velocityAtQuad evaluates u, v, w at the quadrature points for every local
// mode, in the y-pencil layout with NY = NumQuad, into the excursion's input
// fields (returned). Modes the loop skips are never written and keep their
// zeros.
func (s *Solver) velocityAtQuad() [][]complex128 {
	nq := s.qt.NumQuad()
	out := s.exc.In(3)
	s.pool().ForBlocks(s.nw, func(wlo, whi int) {
		full := make([]complex128, s.Cfg.Ny)
		vq := make([]complex128, nq)
		vyq := make([]complex128, nq)
		omq := make([]complex128, nq)
		for w := wlo; w < whi; w++ {
			ikx, ikz := s.modeOf(w)
			base := w * nq
			if s.G.IsNyquistZ(ikz) {
				continue
			}
			if ikx == 0 && ikz == 0 {
				if s.ownsMean {
					fr := make([]float64, s.Cfg.Ny)
					uq := make([]float64, nq)
					embed(fr, s.meanU, 1)
					s.qt.evalReal(uq, fr, 0)
					wq := make([]float64, nq)
					embed(fr, s.meanW, 1)
					s.qt.evalReal(wq, fr, 0)
					for i := 0; i < nq; i++ {
						out[0][base+i] = complex(uq[i], 0)
						out[2][base+i] = complex(wq[i], 0)
					}
				}
				continue
			}
			kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
			k2 := kx*kx + kz*kz
			embed(full, s.cv[w], 2)
			s.qt.eval(vq, full, 0)
			s.qt.eval(vyq, full, 1)
			embed(full, s.cw[w], 1)
			s.qt.eval(omq, full, 0)
			ikxC := complex(0, kx/k2)
			ikzC := complex(0, kz/k2)
			for i := 0; i < nq; i++ {
				out[0][base+i] = ikxC*vyq[i] - ikzC*omq[i]
				out[1][base+i] = vq[i]
				out[2][base+i] = ikzC*vyq[i] + ikxC*omq[i]
			}
		}
	})
	return out
}

// nonlinearProjections evaluates the Galerkin-projected nonlinear terms.
func (s *Solver) nonlinearProjections() (fhg, fhv [][]complex128, meanFx, meanFz []float64) {
	nq := s.qt.NumQuad()
	n := s.Cfg.Ny
	fhg = make([][]complex128, s.nw)
	fhv = make([][]complex128, s.nw)
	for w := range fhg {
		fhg[w] = make([]complex128, s.ng)
		fhv[w] = make([]complex128, s.nv)
	}
	if s.ownsMean {
		meanFx = make([]float64, s.ng)
		meanFz = make([]float64, s.ng)
	}
	if s.Cfg.DisableNonlinear {
		return fhg, fhv, meanFx, meanFz
	}
	s.velocityAtQuad()
	prods := s.exc.Run(&parfft.SixProducts)

	s.pool().ForBlocks(s.nw, func(wlo, whi int) {
		sv := make([]complex128, nq)
		sg := make([]complex128, nq)
		tv := make([]complex128, nq)
		g0 := make([]complex128, nq)
		fullG := make([]complex128, n)
		fullV := make([]complex128, n)
		for w := wlo; w < whi; w++ {
			ikx, ikz := s.modeOf(w)
			if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
				continue
			}
			kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
			k2 := kx*kx + kz*kz
			base := w * nq
			ikxC := complex(0, kx)
			ikzC := complex(0, kz)
			for i := 0; i < nq; i++ {
				uv := prods[parfft.UV][base+i]
				vw := prods[parfft.VW][base+i]
				sv[i] = ikxC*uv + ikzC*vw
				sg[i] = ikzC*uv - ikxC*vw
				tv[i] = complex(kx*kx, 0)*prods[parfft.UU][base+i] +
					complex(2*kx*kz, 0)*prods[parfft.UW][base+i] +
					complex(kz*kz, 0)*prods[parfft.WW][base+i]
				g0[i] = complex(kx*kz, 0)*(prods[parfft.UU][base+i]-prods[parfft.WW][base+i]) -
					complex(kx*kx-kz*kz, 0)*prods[parfft.UW][base+i]
			}
			for i := range fullG {
				fullG[i] = 0
				fullV[i] = 0
			}
			s.qt.project(fullG, g0, 0, 1)
			s.qt.project(fullG, sg, 1, 1)
			copy(fhg[w], fullG[1:n-1])

			ck2 := complex(k2, 0)
			s.qt.project(fullV, sv, 0, ck2)
			for i := 0; i < nq; i++ {
				g0[i] = prods[parfft.VV][base+i] // reuse buffer for vv
			}
			s.qt.project(fullV, g0, 1, -ck2)
			s.qt.project(fullV, tv, 1, 1)
			s.qt.project(fullV, sv, 2, 1)
			copy(fhv[w], fullV[2:n-2])
		}
	})

	if s.ownsMean {
		w00 := s.widx(0, 0)
		base := w00 * nq
		uv := make([]float64, nq)
		vw := make([]float64, nq)
		for i := 0; i < nq; i++ {
			uv[i] = real(prods[parfft.UV][base+i])
			vw[i] = real(prods[parfft.VW][base+i])
		}
		fullX := make([]float64, n)
		fullZ := make([]float64, n)
		// int B_i (-d(uv)/dy) = +int B_i' uv for B_i vanishing at the walls.
		s.qt.projectReal(fullX, uv, 1, 1)
		s.qt.projectReal(fullZ, vw, 1, 1)
		copy(meanFx, fullX[1:n-1])
		copy(meanFz, fullZ[1:n-1])
	}
	return fhg, fhv, meanFx, meanFz
}
