package core

import (
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/telemetry"
)

// Velocity recovery (paper §2.1): for each nonzero wavenumber the
// horizontal velocities follow from continuity and the definition of the
// wall-normal vorticity,
//
//	i*kx*u + i*kz*w = -dv/dy
//	i*kz*u - i*kx*w = omega_y
//
// giving u = (i*kx*v_y - i*kz*omega)/k2 and w = (i*kz*v_y + i*kx*omega)/k2.
// The kx = kz = 0 mode is the mean flow (U, W) carried separately.

// velocityValues evaluates the three velocity components at the collocation
// points for every locally owned mode, in the y-pencil layout
// [kxLoc][kzLoc][Ny] expected by the pencil transposes, into the first three
// input fields {u, v, w} of the excursion.
func (s *Solver) velocityValues() {
	sp := s.tel.Begin(telemetry.PhasePressure)
	ny := s.Cfg.Ny
	ws := s.ws
	out := s.exc.In(3)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		wk := &ws.workers[blk]
		vy := wk.ln[0]
		om := wk.ln[1]
		vv := wk.ln[2]
		for w := wlo; w < whi; w++ {
			ikx, ikz := s.modeOf(w)
			base := w * ny
			if s.G.IsNyquistZ(ikz) {
				continue // stays zero
			}
			if ikx == 0 && ikz == 0 {
				if s.ownsMean {
					uvals := wk.rl[0]
					wvals := wk.rl[1]
					s.b0.MulVec(uvals, s.meanU)
					s.b0.MulVec(wvals, s.meanW)
					for i := 0; i < ny; i++ {
						out[0][base+i] = complex(uvals[i], 0)
						out[2][base+i] = complex(wvals[i], 0)
					}
				}
				continue
			}
			kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
			k2 := kx*kx + kz*kz
			s.b1.MulVecComplex(vy, s.cv[w])
			s.b0.MulVecComplex(om, s.cw[w])
			s.b0.MulVecComplex(vv, s.cv[w])
			ikxC := complex(0, kx/k2)
			ikzC := complex(0, kz/k2)
			for i := 0; i < ny; i++ {
				out[0][base+i] = ikxC*vy[i] - ikzC*om[i]
				out[1][base+i] = vv[i]
				out[2][base+i] = ikzC*vy[i] + ikxC*om[i]
			}
		}
	})
	sp.End()
}

// ModeVelocityValues returns the velocity component values at the
// collocation points for one locally owned mode (nil if not owned). Used by
// statistics and tests.
func (s *Solver) ModeVelocityValues(ikx, ikz int) (u, v, w []complex128) {
	wi := s.widx(ikx, ikz)
	if wi < 0 {
		return nil, nil, nil
	}
	ny := s.Cfg.Ny
	u = make([]complex128, ny)
	v = make([]complex128, ny)
	w = make([]complex128, ny)
	if s.G.IsNyquistZ(ikz) {
		return u, v, w
	}
	if ikx == 0 && ikz == 0 {
		if s.ownsMean {
			uvals := make([]float64, ny)
			wvals := make([]float64, ny)
			s.b0.MulVec(uvals, s.meanU)
			s.b0.MulVec(wvals, s.meanW)
			for i := range uvals {
				u[i] = complex(uvals[i], 0)
				w[i] = complex(wvals[i], 0)
			}
		}
		return u, v, w
	}
	kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
	k2 := kx*kx + kz*kz
	vy := make([]complex128, ny)
	om := make([]complex128, ny)
	s.b1.MulVecComplex(vy, s.cv[wi])
	s.b0.MulVecComplex(om, s.cw[wi])
	s.b0.MulVecComplex(v, s.cv[wi])
	ikxC := complex(0, kx/k2)
	ikzC := complex(0, kz/k2)
	for i := 0; i < ny; i++ {
		u[i] = ikxC*vy[i] - ikzC*om[i]
		w[i] = ikzC*vy[i] + ikxC*om[i]
	}
	return u, v, w
}

// ModeVelocityGradValues returns the wall-normal derivatives of the
// velocity components at the collocation points for one locally owned mode
// (nil if not owned): du/dy, dv/dy, dw/dy. Used by the TKE budget.
func (s *Solver) ModeVelocityGradValues(ikx, ikz int) (uy, vy, wy []complex128) {
	wi := s.widx(ikx, ikz)
	if wi < 0 {
		return nil, nil, nil
	}
	ny := s.Cfg.Ny
	uy = make([]complex128, ny)
	vy = make([]complex128, ny)
	wy = make([]complex128, ny)
	if s.G.IsNyquistZ(ikz) {
		return uy, vy, wy
	}
	if ikx == 0 && ikz == 0 {
		if s.ownsMean {
			du := make([]float64, ny)
			dw := make([]float64, ny)
			s.b1.MulVec(du, s.meanU)
			s.b1.MulVec(dw, s.meanW)
			for i := range du {
				uy[i] = complex(du[i], 0)
				wy[i] = complex(dw[i], 0)
			}
		}
		return uy, vy, wy
	}
	kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
	k2 := kx*kx + kz*kz
	vyy := make([]complex128, ny)
	omy := make([]complex128, ny)
	s.b1.MulVecComplex(vy, s.cv[wi])
	s.b2.MulVecComplex(vyy, s.cv[wi])
	s.b1.MulVecComplex(omy, s.cw[wi])
	ikxC := complex(0, kx/k2)
	ikzC := complex(0, kz/k2)
	for i := 0; i < ny; i++ {
		uy[i] = ikxC*vyy[i] - ikzC*omy[i]
		wy[i] = ikzC*vyy[i] + ikxC*omy[i]
	}
	return uy, vy, wy
}

// MeanShear returns dU/dy at the collocation points, broadcast to all ranks.
func (s *Solver) MeanShear() []float64 {
	ny := s.Cfg.Ny
	vals := make([]float64, ny)
	if s.ownsMean {
		s.b1.MulVec(vals, s.meanU)
	}
	return mpi.Bcast(s.World(), 0, vals)
}

// SecondDerivativeValues maps a profile of collocation values to the values
// of its second derivative (interpolate, then differentiate the spline).
func (s *Solver) SecondDerivativeValues(vals []float64) []float64 {
	c := s.B.Interpolate(vals)
	out := make([]float64, len(vals))
	s.b2.MulVec(out, c)
	return out
}

// pool returns the worker pool; a nil *par.Pool runs serially.
func (s *Solver) pool() *par.Pool { return s.Cfg.Pool }
