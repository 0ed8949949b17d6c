package stats

import (
	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// One-dimensional energy spectra, the core science quantity of the channel
// dataset the paper's simulation produced (cf. del Alamo et al. 2004, cited
// as the reference spectra study): E_qq(kx; y) summed over kz, and
// E_qq(kz; y) summed over kx, for each velocity component. Parseval's
// identity ties them to the variances of Snapshot:
//
//	sum_kx E_uu(kx; y) = <u'u'>(y) = sum_kz E_uu(kz; y).

// Spectra1D holds spectra at a set of wall-normal stations.
type Spectra1D struct {
	// K holds the wavenumber of each spectral bin.
	K []float64
	// YIndex are the collocation indices of the stations.
	YIndex []int
	// Euu[s][k] is the u-component energy at station s and bin k;
	// similarly for the other components.
	Euu, Evv, Eww [][]float64
}

// SpectraX computes streamwise spectra (binned by kx index, summed over kz)
// at the given collocation indices, globally reduced so every rank holds
// the full result. The mean (0,0) mode is excluded.
func SpectraX(s *core.Solver, yIdx []int) Spectra1D {
	g := s.G
	nb := g.NKx()
	out := newSpectra(nb, yIdx)
	for i := 0; i < nb; i++ {
		out.K[i] = g.Kx(i)
	}
	accumulate(s, yIdx, &out, func(ikx, ikz int) int { return ikx })
	return reduceSpectra(s.World(), out)
}

// SpectraZ computes spanwise spectra (binned by |kz| index, summed over kx)
// at the given collocation indices.
func SpectraZ(s *core.Solver, yIdx []int) Spectra1D {
	g := s.G
	nb := g.Nz / 2 // bins 0..Nz/2-1 by |kz'|
	out := newSpectra(nb, yIdx)
	for i := 0; i < nb; i++ {
		out.K[i] = g.Beta() * float64(i)
	}
	accumulate(s, yIdx, &out, func(ikx, ikz int) int {
		k := s.G.KzIndex(ikz)
		if k < 0 {
			k = -k
		}
		return k
	})
	return reduceSpectra(s.World(), out)
}

func newSpectra(nb int, yIdx []int) Spectra1D {
	sp := Spectra1D{
		K:      make([]float64, nb),
		YIndex: append([]int(nil), yIdx...),
		Euu:    make([][]float64, len(yIdx)),
		Evv:    make([][]float64, len(yIdx)),
		Eww:    make([][]float64, len(yIdx)),
	}
	for i := range yIdx {
		sp.Euu[i] = make([]float64, nb)
		sp.Evv[i] = make([]float64, nb)
		sp.Eww[i] = make([]float64, nb)
	}
	return sp
}

func accumulate(s *core.Solver, yIdx []int, sp *Spectra1D, bin func(ikx, ikz int) int) {
	vel := velLines(3, s.Cfg.Ny)
	s.EachModeVelocity(vel, func(ikx, ikz int, wt float64) {
		b := bin(ikx, ikz)
		if (ikx == 0 && ikz == 0) || b >= len(sp.K) {
			return
		}
		for si, yi := range yIdx {
			sp.Euu[si][b] += wt * absSq(vel[0][yi])
			sp.Evv[si][b] += wt * absSq(vel[1][yi])
			sp.Eww[si][b] += wt * absSq(vel[2][yi])
		}
	})
}

func reduceSpectra(world *mpi.Comm, sp Spectra1D) Spectra1D {
	for si := range sp.YIndex {
		sp.Euu[si] = mpi.Allreduce(world, mpi.OpSum, sp.Euu[si])
		sp.Evv[si] = mpi.Allreduce(world, mpi.OpSum, sp.Evv[si])
		sp.Eww[si] = mpi.Allreduce(world, mpi.OpSum, sp.Eww[si])
	}
	return sp
}

// Total returns the summed energy per station for one component array,
// which by Parseval equals the corresponding variance profile value.
func (sp Spectra1D) Total(comp [][]float64, station int) float64 {
	t := 0.0
	for _, e := range comp[station] {
		t += e
	}
	return t
}
