// Package stats computes the turbulence statistics the paper's science
// output reports (Figures 5 and 6): the mean velocity profile, the velocity
// variances <uu>, <vv>, <ww>, and the turbulent shear stress -<uv>, plus
// wall-unit scalings and the log-law diagnostic used to examine the overlap
// region. Channel flow is statistically stationary, so statistics are
// accumulated as running time averages over snapshots.
package stats

import (
	"fmt"
	"io"
	"math"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// Profiles holds one-dimensional statistics as functions of y.
type Profiles struct {
	Y  []float64 // collocation points
	U  []float64 // mean streamwise velocity
	UU []float64 // <u'u'>
	VV []float64 // <v'v'>
	WW []float64 // <w'w'>
	UV []float64 // <u'v'>
}

// Snapshot computes instantaneous (plane-averaged) profiles from the
// solver's spectral state. Plane averaging over x and z is exact in
// spectral space: the mean is the (0,0) mode and the second moments are
// sums of squared mode amplitudes (one-sided kx modes weighted by two).
// Every rank receives the complete, globally reduced profiles.
func Snapshot(s *core.Solver) Profiles {
	ny := s.Cfg.Ny
	p := Profiles{
		Y:  append([]float64(nil), s.CollocationPoints()...),
		U:  s.MeanProfile(),
		UU: make([]float64, ny),
		VV: make([]float64, ny),
		WW: make([]float64, ny),
		UV: make([]float64, ny),
	}
	vel := velLines(3, ny)
	s.EachModeVelocity(vel, func(ikx, ikz int, wt float64) {
		if ikx == 0 && ikz == 0 {
			return // the mean, which U carries
		}
		u, v, w := vel[0], vel[1], vel[2]
		for i := 0; i < ny; i++ {
			p.UU[i] += wt * absSq(u[i])
			p.VV[i] += wt * absSq(v[i])
			p.WW[i] += wt * absSq(w[i])
			p.UV[i] += wt * (real(u[i])*real(v[i]) + imag(u[i])*imag(v[i]))
		}
	})
	world := s.World()
	p.UU = mpi.Allreduce(world, mpi.OpSum, p.UU)
	p.VV = mpi.Allreduce(world, mpi.OpSum, p.VV)
	p.WW = mpi.Allreduce(world, mpi.OpSum, p.WW)
	p.UV = mpi.Allreduce(world, mpi.OpSum, p.UV)
	return p
}

func absSq(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

// velLines returns n lines of Ny for Solver.EachModeVelocity to fill.
func velLines(n, ny int) [][]complex128 {
	l := make([][]complex128, n)
	for i := range l {
		l[i] = make([]complex128, ny)
	}
	return l
}

// Accumulator forms running time averages of profiles.
type Accumulator struct {
	n   int
	sum Profiles
}

// Add folds one snapshot into the average.
func (a *Accumulator) Add(p Profiles) {
	if a.n == 0 {
		a.sum = Profiles{
			Y:  append([]float64(nil), p.Y...),
			U:  append([]float64(nil), p.U...),
			UU: append([]float64(nil), p.UU...),
			VV: append([]float64(nil), p.VV...),
			WW: append([]float64(nil), p.WW...),
			UV: append([]float64(nil), p.UV...),
		}
		a.n = 1
		return
	}
	for i := range p.Y {
		a.sum.U[i] += p.U[i]
		a.sum.UU[i] += p.UU[i]
		a.sum.VV[i] += p.VV[i]
		a.sum.WW[i] += p.WW[i]
		a.sum.UV[i] += p.UV[i]
	}
	a.n++
}

// Count returns the number of accumulated snapshots.
func (a *Accumulator) Count() int { return a.n }

// Mean returns the time-averaged profiles (zero value if empty).
func (a *Accumulator) Mean() Profiles {
	if a.n == 0 {
		return Profiles{}
	}
	inv := 1 / float64(a.n)
	out := Profiles{
		Y:  append([]float64(nil), a.sum.Y...),
		U:  make([]float64, len(a.sum.U)),
		UU: make([]float64, len(a.sum.UU)),
		VV: make([]float64, len(a.sum.VV)),
		WW: make([]float64, len(a.sum.WW)),
		UV: make([]float64, len(a.sum.UV)),
	}
	for i := range out.U {
		out.U[i] = a.sum.U[i] * inv
		out.UU[i] = a.sum.UU[i] * inv
		out.VV[i] = a.sum.VV[i] * inv
		out.WW[i] = a.sum.WW[i] * inv
		out.UV[i] = a.sum.UV[i] * inv
	}
	return out
}

// WallUnits rescales the lower half-channel into wall units: y+ = (1+y)/nu *
// u_tau and U+ = U/u_tau, with u_tau estimated from the wall slope of U.
// Points with y+ <= 0 are skipped (the wall itself).
func (p Profiles) WallUnits(nu float64) (yPlus, uPlus []float64, uTau float64) {
	// One-sided slope estimate from the first two points off the wall.
	if len(p.Y) < 3 {
		return nil, nil, 0
	}
	dUdy := (p.U[1] - p.U[0]) / (p.Y[1] - p.Y[0])
	uTau = math.Sqrt(math.Abs(nu * dUdy))
	if uTau == 0 {
		return nil, nil, 0
	}
	for i := range p.Y {
		if p.Y[i] >= 0 {
			break
		}
		yp := (1 + p.Y[i]) * uTau / nu
		if yp <= 0 {
			continue
		}
		yPlus = append(yPlus, yp)
		uPlus = append(uPlus, p.U[i]/uTau)
	}
	return yPlus, uPlus, uTau
}

// LogLawFit fits U+ = (1/kappa)*ln(y+) + B over the overlap band
// [loYPlus, hiFrac*ReTau] and returns kappa and B. The classical values are
// kappa ~ 0.38-0.41, B ~ 4.5-5.2; the fit is meaningful only for converged
// statistics at sufficient Reynolds number.
func LogLawFit(yPlus, uPlus []float64, loYPlus, hiYPlus float64) (kappa, b float64, ok bool) {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range yPlus {
		if yPlus[i] < loYPlus || yPlus[i] > hiYPlus {
			continue
		}
		x := math.Log(yPlus[i])
		sx += x
		sy += uPlus[i]
		sxx += x * x
		sxy += x * uPlus[i]
		n++
	}
	if n < 3 {
		return 0, 0, false
	}
	fn := float64(n)
	slope := (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
	if slope <= 0 {
		return 0, 0, false
	}
	inter := (sy - slope*sx) / fn
	return 1 / slope, inter, true
}

// ReichardtProfile returns the Reichardt composite law-of-the-wall profile
// U+(y+), a standard empirical reference curve for Figure 5 comparisons.
func ReichardtProfile(yPlus float64) float64 {
	const kappa = 0.41
	return math.Log(1+kappa*yPlus)/kappa +
		7.8*(1-math.Exp(-yPlus/11)-yPlus/11*math.Exp(-yPlus/3))
}

// Write emits the profiles as aligned columns: y, U, uu, vv, ww, -uv.
func (p Profiles) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-12s %-12s %-12s %-12s %-12s %-12s\n",
		"y", "U", "<uu>", "<vv>", "<ww>", "-<uv>"); err != nil {
		return err
	}
	for i := range p.Y {
		if _, err := fmt.Fprintf(w, "%-12.6f %-12.6f %-12.6f %-12.6f %-12.6f %-12.6f\n",
			p.Y[i], p.U[i], p.UU[i], p.VV[i], p.WW[i], -p.UV[i]); err != nil {
			return err
		}
	}
	return nil
}
