package core

import (
	"channeldns/internal/mpi"
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

// horizontal recovers a (u, w) line pair from the lines of dv/dy and omega_y,
// with ikxC = i*kx/k2 and ikzC = i*kz/k2; fed the y derivatives of the two it
// yields (du/dy, dw/dy).
func horizontal(u, w, vy, om []complex128, ikxC, ikzC complex128) {
	for i := range u {
		u[i] = ikxC*vy[i] - ikzC*om[i]
		w[i] = ikzC*vy[i] + ikxC*om[i]
	}
}

// meanLine writes the collocation values B_d*c of a real mean profile as a
// complex line.
func (s *Solver) meanLine(dst []complex128, d int, c, tmp []float64) {
	s.colloc.MulReal(d, tmp, c)
	for i := range dst {
		dst[i] = complex(tmp[i], 0)
	}
}

// modeVelocity evaluates the velocity of local mode w at the collocation
// points: u, v, w into dst[0..2] and, when dst has six lines, du/dy, dv/dy,
// dw/dy into dst[3..5]. It writes every element: +0 where the mode defines no
// value (every line in the z Nyquist slot, v and dv/dy of the mean).
func (s *Solver) modeVelocity(dst [][]complex128, w int, wk *wsWorker) {
	ikx, ikz := s.modeOf(w)
	if s.G.IsNyquistZ(ikz) {
		for _, l := range dst {
			clear(l)
		}
		return
	}
	grad := len(dst) == 6
	if ikx == 0 && ikz == 0 { // local only where s.ownsMean
		s.meanLine(dst[0], 0, s.meanU, wk.rl)
		clear(dst[1])
		s.meanLine(dst[2], 0, s.meanW, wk.rl)
		if grad {
			s.meanLine(dst[3], 1, s.meanU, wk.rl)
			clear(dst[4])
			s.meanLine(dst[5], 1, s.meanW, wk.rl)
		}
		return
	}
	kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
	k2 := kx*kx + kz*kz
	ikxC, ikzC := complex(0, kx/k2), complex(0, kz/k2)
	vy, om := wk.ln[0], wk.ln[1]
	if grad {
		vy = dst[4]
	}
	s.colloc.Mul2(1, 0, vy, dst[1], s.cv[w])
	s.colloc.Mul(0, om, s.cw[w])
	horizontal(dst[0], dst[2], vy, om, ikxC, ikzC)
	if grad {
		vyy, omy := wk.ln[2], wk.ln[3]
		s.colloc.Mul(2, vyy, s.cv[w])
		s.colloc.Mul(1, omy, s.cw[w])
		horizontal(dst[3], dst[5], vyy, omy, ikxC, ikzC)
	}
}

// velocityValues evaluates modeVelocity for every locally owned mode into
// the first n input fields of the excursion — {u, v, w} for n = 3, plus their
// y derivatives for n = 6 — in the y-pencil layout [kxLoc][kzLoc][Ny] the
// pencil transposes expect, and in the scalar workload theta's values into
// the field theta (nil otherwise).
func (s *Solver) velocityValues(n int, theta []complex128) {
	sp := s.tel.Begin(telemetry.PhasePressure)
	ny := s.Cfg.Ny
	out := s.exc.In(n)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		wk := &s.ws.workers[blk]
		var dst [6][]complex128
		for w := wlo; w < whi; w++ {
			for c := range out {
				dst[c] = out[c][w*ny : (w+1)*ny]
			}
			s.modeVelocity(dst[:n], w, wk)
			if theta != nil {
				s.scalar.modeTheta(theta[w*ny:(w+1)*ny], w, wk)
			}
		}
	})
	sp.End()
}

// EachModeVelocity evaluates the velocity of every local mode but the z
// Nyquist ones into vel, in slot order, and calls f after each with the
// mode's (ikx, ikz) and Parseval weight (see eachMode). vel is three lines of
// Ny, u, v, w, or six, with du/dy, dv/dy, dw/dy; the caller owns them and
// they are overwritten from mode to mode. The mean (0, 0) is visited too, as
// (U, 0, W). It borrows worker 0's scratch: diagnostics run between steps,
// never beside one.
func (s *Solver) EachModeVelocity(vel [][]complex128, f func(ikx, ikz int, wt float64)) {
	wk := &s.ws.workers[0]
	s.eachMode(func(w, ikx, ikz int, wt float64) {
		s.modeVelocity(vel, w, wk)
		f(ikx, ikz, wt)
	})
}

// diagLines returns three of worker 0's scratch lines that modeVelocity of
// three lines, which works in ln[0] and ln[1], leaves alone: EachModeVelocity
// of u, v, w needs no lines of its own inside core.
func (s *Solver) diagLines() [][]complex128 { return s.ws.workers[0].ln[2:5] }

// MeanShear returns dU/dy at the collocation points, broadcast to all ranks.
func (s *Solver) MeanShear() []float64 {
	ny := s.Cfg.Ny
	vals := make([]float64, ny)
	if s.ownsMean {
		s.colloc.MulReal(1, vals, s.meanU)
	}
	return mpi.Bcast(s.World(), 0, vals)
}

// SecondDerivativeValues maps a profile of collocation values to the values
// of its second derivative (interpolate, then differentiate the spline).
func (s *Solver) SecondDerivativeValues(vals []float64) []float64 {
	c := s.B.Interpolate(vals)
	out := make([]float64, len(vals))
	s.colloc.MulReal(2, out, c)
	return out
}
