package core

// Nonlinear term evaluation. The dealiased excursion of paper §2.3 steps
// (a)-(h) — out through the transposes and padded inverse transforms to the
// 3/2 physical grid, pointwise products, and the same path back — is
// parfft.Excursion, shared by every solver; this file holds the channel
// solver's side of it: the choice of form and the per-mode assembly of the
// right-hand sides from what the excursion brings back.
//
// The paper forms five product fields; we carry the six independent
// components of u_i*u_j (uu, uv, uw, vv, vw, ww) for a direct assembly of
// the divergence-form right-hand sides — see DESIGN.md for the accounting
// difference, which the machine model (not this code) normalizes back to
// the paper's five.

import (
	"channeldns/internal/parfft"
	"channeldns/internal/telemetry"
)

// pass evaluates the velocity lines sp takes out, runs it and returns its
// y-pencil collocation values, layout [kxLoc][kzLoc][Ny] per field; what a
// harvesting pass found is published for CFLEstimate. In the scalar workload
// theta joins the pass chosen to carry it (ScalarSolver.carrier) as one more
// input, and the fluxes it brings back behind sp's outputs are kept.
func (s *Solver) pass(sp *parfft.Spec) [][]complex128 {
	run, theta := sp, []complex128(nil)
	if t := s.scalar; t != nil && sp == t.carrier {
		run = &t.carried
		theta = s.exc.In(run.In)[sp.In]
	}
	s.velocityValues(sp.In, theta)
	out := s.exc.Run(run)
	if run.Harvest {
		s.harvest(s.exc)
	}
	if run != sp {
		s.scalar.fluxes = out[sp.Out:]
	}
	return out[:sp.Out]
}

// ddy maps the collocation values vals of a mode line to those of a
// wall-normal derivative of order d of their spline interpolant,
// dst = B_d*B0^{-1}*vals; sol is scratch.
func (s *Solver) ddy(dst []complex128, d int, vals, sol []complex128) {
	copy(sol, vals)
	s.b0fac.SolveComplex(sol)
	s.colloc.Mul(d, dst, sol)
}

// meanFluxTerm writes the mean-mode right-hand side -d<flux>/dy from the
// (real) mean-slot collocation values of a wall-normal flux: <uv> for U,
// <vw> for W, <v theta> for Theta.
func (s *Solver) meanFluxTerm(dst []float64, flux []complex128) {
	c := s.ws.meanS0
	for i := range c {
		c[i] = real(flux[i])
	}
	s.b0fac.SolveReal(c)
	s.colloc.MulReal(1, dst, c)
	for i := range dst {
		dst[i] = -dst[i]
	}
}

// nonlinearTerms evaluates h_g and h_v (collocation values per local
// wavenumber) and the mean-flow forcing profiles on the owner rank,
// dispatching on the configured convective-term form. With
// DisableNonlinear it returns zeros. The returned slices are the arena's
// current-substep buffers; StepOnce swaps them with the previous-substep
// buffers after the advance.
func (s *Solver) nonlinearTerms() (hg, hv [][]complex128, meanHx, meanHz []float64) {
	ny := s.Cfg.Ny
	ws := s.ws
	hg, hv = ws.hgCur, ws.hvCur
	meanHx, meanHz = ws.meanHxCur, ws.meanHzCur
	if s.Cfg.DisableNonlinear {
		for w := 0; w < s.nw; w++ {
			clear(hg[w])
			clear(hv[w])
		}
		clear(meanHx) // nil off the owner rank
		clear(meanHz)
		return hg, hv, meanHx, meanHz
	}
	switch s.Cfg.Nonlinear {
	case FormConvective:
		s.convectiveTerms(hg, hv, meanHx, meanHz)
	case FormSkewSymmetric:
		s.ensureAlt()
		s.divergenceTerms(hg, hv, meanHx, meanHz)
		s.convectiveTerms(ws.hgAlt, ws.hvAlt, ws.meanHxAlt, ws.meanHzAlt)
		half := complex(0.5, 0)
		for w := 0; w < s.nw; w++ {
			for i := 0; i < ny; i++ {
				hg[w][i] = half * (hg[w][i] + ws.hgAlt[w][i])
				hv[w][i] = half * (hv[w][i] + ws.hvAlt[w][i])
			}
		}
		if s.ownsMean {
			for i := 0; i < ny; i++ {
				meanHx[i] = (meanHx[i] + ws.meanHxAlt[i]) / 2
				meanHz[i] = (meanHz[i] + ws.meanHzAlt[i]) / 2
			}
		}
	default:
		s.divergenceTerms(hg, hv, meanHx, meanHz)
	}
	return hg, hv, meanHx, meanHz
}

// divergenceTerms is the paper's path: six dealiased quadratic products,
// assembled into the caller-provided output buffers.
func (s *Solver) divergenceTerms(hg, hv [][]complex128, meanHx, meanHz []float64) {
	ny := s.Cfg.Ny
	ws := s.ws
	prods := s.pass(&parfft.SixProducts)

	sp := s.tel.Begin(telemetry.PhaseNonlinear)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		wk := &ws.workers[blk]
		sv := wk.ln[0]  // S  = i*kx*uv + i*kz*vw
		sg := wk.ln[1]  // Sg = i*kz*uv - i*kx*vw
		tv := wk.ln[2]  // T  = kx^2*uu + 2*kx*kz*uw + kz^2*ww
		tmp := wk.ln[3] // derivative values
		sol := wk.ln[4] // banded-solve right-hand side
		for w := wlo; w < whi; w++ {
			ikx, ikz := s.modeOf(w)
			if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
				continue
			}
			kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
			k2 := kx*kx + kz*kz
			base := w * ny
			ikxC := complex(0, kx)
			ikzC := complex(0, kz)
			for i := 0; i < ny; i++ {
				uv := prods[parfft.UV][base+i]
				vw := prods[parfft.VW][base+i]
				sv[i] = ikxC*uv + ikzC*vw
				sg[i] = ikzC*uv - ikxC*vw
				tv[i] = complex(kx*kx, 0)*prods[parfft.UU][base+i] +
					complex(2*kx*kz, 0)*prods[parfft.UW][base+i] +
					complex(kz*kz, 0)*prods[parfft.WW][base+i]
			}
			// The four y derivatives below each interpolate a line first
			// (see ddy); the solves against B0 go two at a time, Sg and T in
			// place, S and vv through sol.
			// h_g = kx*kz*(uu-ww) - (kx^2-kz^2)*uw - d/dy(Sg)
			copy(sol, sv)
			s.b0fac.SolveComplex2(sg, sol)
			s.colloc.Mul(1, tmp, sg)
			hgw := hg[w]
			for i := 0; i < ny; i++ {
				hgw[i] = complex(kx*kz, 0)*(prods[parfft.UU][base+i]-prods[parfft.WW][base+i]) -
					complex(kx*kx-kz*kz, 0)*prods[parfft.UW][base+i] - tmp[i]
			}
			// h_v = k2*S + k2*d/dy(vv) - d/dy(T) + d2/dy2(S)
			hvw := hv[w]
			ck2 := complex(k2, 0)
			s.colloc.Mul(2, tmp, sol)
			for i := 0; i < ny; i++ {
				hvw[i] = ck2*sv[i] + tmp[i]
			}
			copy(sol, prods[parfft.VV][base:base+ny])
			s.b0fac.SolveComplex2(sol, tv)
			s.colloc.Mul(1, tmp, sol)
			for i := 0; i < ny; i++ {
				hvw[i] += ck2 * tmp[i]
			}
			s.colloc.Mul(1, tmp, tv)
			for i := 0; i < ny; i++ {
				hvw[i] -= tmp[i]
			}
		}
	})

	if s.ownsMean {
		// Mean momentum: H_x(0,0) = -d<uv>/dy, H_z(0,0) = -d<vw>/dy.
		base := s.widx(0, 0) * ny
		s.meanFluxTerm(meanHx, prods[parfft.UV][base:base+ny])
		s.meanFluxTerm(meanHz, prods[parfft.VW][base:base+ny])
	}
	sp.End()
}
