package core

import (
	"math"
	"math/cmplx"

	"channeldns/internal/mpi"
)

// Diagnostics used by tests, statistics and the example programs.

// BCResidual returns the largest boundary-condition violation across all
// locally advanced modes and both walls: |v|, |v'| and |omega_y| at y = +-1,
// reduced to the global maximum over ranks.
func (s *Solver) BCResidual() float64 {
	m := 0.0
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			continue
		}
		vlo := s.evalWall(s.cv[w], false)
		vhi := s.evalWall(s.cv[w], true)
		dlo, dhi := s.wallDeriv(s.cv[w])
		olo := s.evalWall(s.cw[w], false)
		ohi := s.evalWall(s.cw[w], true)
		for _, c := range []complex128{vlo, vhi, dlo, dhi, olo, ohi} {
			if a := cmplx.Abs(c); a > m {
				m = a
			}
		}
	}
	return mpi.Allreduce(s.World(), mpi.OpMax, []float64{m})[0]
}

// evalWall evaluates a coefficient vector's value row at a wall.
func (s *Solver) evalWall(c []complex128, upper bool) complex128 {
	row := s.wall.LowerVal
	start := s.wall.LowerValStart
	if upper {
		row = s.wall.UpperVal
		start = s.wall.UpperValStart
	}
	var v complex128
	for j, a := range row {
		col := start + j
		if col >= 0 && col < len(c) {
			v += complex(a, 0) * c[col]
		}
	}
	return v
}

// EnergyProfile returns sum over modes of |u|^2+|v|^2+|w|^2 at each
// collocation point (one-sided modes weighted by two), globally reduced.
// The mean flow is included.
func (s *Solver) EnergyProfile() []float64 {
	ny := s.Cfg.Ny
	prof := make([]float64, ny)
	vel := s.diagLines()
	s.eachModeVelocity(vel, func(ikx, _ int) {
		u, v, wv := vel[0], vel[1], vel[2]
		wt := oneSided(ikx)
		for i := 0; i < ny; i++ {
			prof[i] += wt * (sq(u[i]) + sq(v[i]) + sq(wv[i]))
		}
	})
	return mpi.Allreduce(s.World(), mpi.OpSum, prof)
}

func sq(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

// TotalEnergy integrates EnergyProfile over y (times 1/2), giving the
// volume-averaged kinetic energy per unit plan area.
func (s *Solver) TotalEnergy() float64 {
	prof := s.EnergyProfile()
	c := s.B.Interpolate(prof)
	w := s.B.IntegrationWeights()
	e := 0.0
	for i := range w {
		e += w[i] * c[i]
	}
	return e / 2
}

// MeanProfile returns the mean streamwise velocity at the collocation
// points, broadcast from the owner rank to all ranks.
func (s *Solver) MeanProfile() []float64 {
	ny := s.Cfg.Ny
	vals := make([]float64, ny)
	root := 0 // owner of kx=kz=0 is cart rank (0,0) == world slot 0 of the grid
	if s.ownsMean {
		s.colloc.MulReal(0, vals, s.meanU)
	}
	return mpi.Bcast(s.World(), root, vals)
}

// FrictionVelocity returns u_tau implied by the current mean profile,
// sqrt(nu * dU/dy) at the lower wall. In the wall-unit normalization the
// statistically stationary value is 1.
func (s *Solver) FrictionVelocity() float64 {
	var ut float64
	if s.ownsMean {
		lo, _ := s.wallDerivReal(s.meanU)
		ut = math.Sqrt(math.Abs(s.nu * lo))
	}
	return mpi.Bcast(s.World(), 0, []float64{ut})[0]
}

// CFLEstimate returns a conservative bound on the convective CFL number of
// the current state at the configured time step:
//
//	CFL <= dt * (max|u|/dx + max|v|/dy_min + max|w|/dz)
//
// with max|u_i| bounded by the sum of spectral amplitudes (triangle
// inequality), globally reduced. The explicit RK3 convection is stable for
// CFL below about sqrt(3); production channel codes keep it near 1. Because
// the bound is a sum of amplitudes it overestimates mildly for turbulent
// states.
func (s *Solver) CFLEstimate() float64 {
	ny := s.Cfg.Ny
	// Exact physical maxima harvested during the last nonlinear evaluation:
	// each rank holds its own y range, merged by max.
	m, current := s.harvested()
	op := mpi.OpMax
	if !current {
		// No nonlinear evaluation yet (or frozen convection): fall back to
		// the triangle-inequality bound from spectral amplitudes.
		op = mpi.OpSum
		vel := s.diagLines()
		s.eachModeVelocity(vel, func(ikx, _ int) {
			wt := oneSided(ikx)
			for c, vals := range vel {
				for i, v := range vals {
					m[c][i] += wt * cmplx.Abs(v)
				}
			}
		})
	}
	maxU := mpi.Allreduce(s.World(), op, m[0])
	maxV := mpi.Allreduce(s.World(), op, m[1])
	maxW := mpi.Allreduce(s.World(), op, m[2])
	dx := s.Cfg.Lx / float64(s.G.MX())
	dz := s.Cfg.Lz / float64(s.G.MZ())
	cfl := 0.0
	for i := 0; i < ny; i++ {
		dy := 1.0
		switch {
		case i == 0:
			dy = s.grev[1] - s.grev[0]
		case i == ny-1:
			dy = s.grev[ny-1] - s.grev[ny-2]
		default:
			dy = (s.grev[i+1] - s.grev[i-1]) / 2
		}
		c := maxU[i]/dx + maxV[i]/dy + maxW[i]/dz
		if c > cfl {
			cfl = c
		}
	}
	return cfl * s.Cfg.Dt
}

// BulkVelocity returns the bulk (volume-averaged) streamwise velocity.
func (s *Solver) BulkVelocity() float64 {
	var ub float64
	if s.ownsMean {
		w := s.B.IntegrationWeights()
		for i := range w {
			ub += w[i] * s.meanU[i]
		}
		ub /= 2 // channel height
	}
	return mpi.Bcast(s.World(), 0, []float64{ub})[0]
}
