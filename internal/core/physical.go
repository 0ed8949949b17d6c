package core

import (
	"fmt"

	"channeldns/internal/fft"
)

// Physical-space extraction for visualization (paper Figures 7 and 8).
// These helpers run on a single-rank solver: they evaluate the spectral
// state on one wall-parallel plane and inverse transform it onto the
// dealiased MX x MZ physical grid.

// PhysicalComponent selects the field extracted by PhysicalPlane.
type PhysicalComponent int

// Extractable fields.
const (
	CompU      PhysicalComponent = iota // streamwise velocity
	CompV                               // wall-normal velocity
	CompW                               // spanwise velocity
	CompOmegaZ                          // spanwise vorticity dv/dx - du/dy
)

// PhysicalPlane evaluates the chosen component on the physical grid at
// collocation index yi and returns it as plane[z][x] with dimensions
// MZ x MX. It requires a single-rank solver (PA = PB = 1).
func (s *Solver) PhysicalPlane(comp PhysicalComponent, yi int) [][]float64 {
	if s.D.PA != 1 || s.D.PB != 1 {
		panic("core: PhysicalPlane requires a single-rank solver")
	}
	if yi < 0 || yi >= s.Cfg.Ny {
		panic(fmt.Sprintf("core: collocation index %d out of range", yi))
	}
	g := s.G
	ny := s.Cfg.Ny
	nkx, nz := g.NKx(), g.Nz
	mx, mz := g.MX(), g.MZ()

	// Spectral plane spec[kx][kz] of the component at yi.
	spec := make([]complex128, nkx*nz)
	lines := allocCoef(6, ny) // u v w and their y derivatives
	s.eachModeVelocity(lines, func(ikx, ikz int) {
		if comp == CompOmegaZ {
			// omega_z = i*kx*v - du/dy (just -dU/dy for the mean).
			spec[ikx*nz+ikz] = complex(0, g.Kx(ikx))*lines[1][yi] - lines[3][yi]
		} else {
			spec[ikx*nz+ikz] = lines[comp][yi] // CompU, CompV, CompW index u, v, w
		}
	})

	// Inverse transform, each stage one batched call over the plane: z
	// along the nkx lines spec[kx][.], then x along the mz columns
	// zphys[.][z] into the rows of plane.
	zphys := make([]complex128, nkx*mz)
	s.padZ.InversePaddedBatch(zphys, fft.Layout{Elem: 1, Line: mz}, spec, fft.Layout{Elem: 1, Line: nz}, nkx,
		make([]complex128, s.padZ.BatchScratchLen()))
	phys := make([]float64, mz*mx)
	s.padX.InversePaddedBatch(phys, fft.Layout{Elem: 1, Line: mx}, zphys, fft.Layout{Elem: mz, Line: 1}, mz,
		make([]complex128, s.padX.BatchScratchLen()))
	plane := make([][]float64, mz)
	for z := range plane {
		plane[z] = phys[z*mx : (z+1)*mx : (z+1)*mx]
	}
	return plane
}
