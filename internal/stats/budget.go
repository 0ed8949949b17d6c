package stats

import (
	"fmt"
	"io"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// Turbulent kinetic energy budget terms, the flagship analysis the paper's
// ReTau = 5200 dataset was produced for. For the channel, with k(y) the
// turbulent kinetic energy,
//
//	0 = P - eps + nu d2k/dy2 + (transport terms)
//
// in statistical equilibrium, where P = -<u'v'> dU/dy is production and
// eps = nu <du_i'/dx_j du_i'/dx_j> the (pseudo-)dissipation. The three
// terms computable exactly from the spectral state are provided; the
// turbulent and pressure transport (triple products) close the budget and
// are not computed here.

// Budget holds TKE budget profiles.
type Budget struct {
	Y                []float64
	TKE              []float64 // k = (<uu>+<vv>+<ww>)/2
	Production       []float64 // -<u'v'> dU/dy
	Dissipation      []float64 // nu <grad u' : grad u'>  (pseudo-dissipation)
	ViscousDiffusion []float64 // nu d2k/dy2
}

// TKEBudget computes the spectrally exact budget terms, globally reduced so
// every rank holds the full profiles.
func TKEBudget(s *core.Solver) Budget {
	g := s.G
	ny := s.Cfg.Ny
	nu := s.Nu()
	b := Budget{
		Y:                append([]float64(nil), s.CollocationPoints()...),
		TKE:              make([]float64, ny),
		Production:       make([]float64, ny),
		Dissipation:      make([]float64, ny),
		ViscousDiffusion: make([]float64, ny),
	}
	uv := make([]float64, ny)
	vel := velLines(6, ny)
	s.EachModeVelocity(vel, func(ikx, ikz int, wt float64) {
		if ikx == 0 && ikz == 0 {
			return
		}
		u, v, w, uy, vy, wy := vel[0], vel[1], vel[2], vel[3], vel[4], vel[5]
		kx, kz := g.Kx(ikx), g.Kz(ikz)
		kh2 := kx*kx + kz*kz
		for i := 0; i < ny; i++ {
			e := absSq(u[i]) + absSq(v[i]) + absSq(w[i])
			b.TKE[i] += wt * e / 2
			uv[i] += wt * (real(u[i])*real(v[i]) + imag(u[i])*imag(v[i]))
			// |grad q|^2 per mode: kh2*|q|^2 + |dq/dy|^2 for each
			// component (x and z derivatives are i*k multiples).
			b.Dissipation[i] += wt * nu * (kh2*e +
				absSq(uy[i]) + absSq(vy[i]) + absSq(wy[i]))
		}
	})
	world := s.World()
	b.TKE = mpi.Allreduce(world, mpi.OpSum, b.TKE)
	b.Dissipation = mpi.Allreduce(world, mpi.OpSum, b.Dissipation)
	uv = mpi.Allreduce(world, mpi.OpSum, uv)
	dUdy := s.MeanShear()
	for i := 0; i < ny; i++ {
		b.Production[i] = -uv[i] * dUdy[i]
	}
	d2k := s.SecondDerivativeValues(b.TKE)
	for i := 0; i < ny; i++ {
		b.ViscousDiffusion[i] = nu * d2k[i]
	}
	return b
}

// Write emits the budget as aligned columns.
func (b Budget) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-12s %-12s %-12s %-12s %-12s\n",
		"y", "k", "production", "dissipation", "visc-diff"); err != nil {
		return err
	}
	for i := range b.Y {
		if _, err := fmt.Fprintf(w, "%-12.6f %-12.6f %-12.6f %-12.6f %-12.6f\n",
			b.Y[i], b.TKE[i], b.Production[i], b.Dissipation[i], b.ViscousDiffusion[i]); err != nil {
			return err
		}
	}
	return nil
}
