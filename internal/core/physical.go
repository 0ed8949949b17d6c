package core

import "fmt"

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
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if g.IsNyquistZ(ikz) {
			continue
		}
		for _, l := range lines {
			clear(l) // the mean leaves v and dv/dy alone
		}
		s.modeVelocity(lines, w, &s.ws.workers[0])
		if comp == CompOmegaZ {
			// omega_z = i*kx*v - du/dy (just -dU/dy for the mean).
			spec[ikx*nz+ikz] = complex(0, g.Kx(ikx))*lines[1][yi] - lines[3][yi]
		} else {
			spec[ikx*nz+ikz] = lines[comp][yi] // CompU, CompV, CompW index u, v, w
		}
	}

	// Inverse transform: z first (per kx line), then x (per z line).
	zline := make([]complex128, nz)
	zphys := make([]complex128, nkx*mz)
	for ikx := 0; ikx < nkx; ikx++ {
		copy(zline, spec[ikx*nz:(ikx+1)*nz])
		s.padZ.InversePadded(zphys[ikx*mz:(ikx+1)*mz], zline)
	}
	plane := make([][]float64, mz)
	xline := make([]complex128, nkx)
	for z := 0; z < mz; z++ {
		plane[z] = make([]float64, mx)
		for ikx := 0; ikx < nkx; ikx++ {
			xline[ikx] = zphys[ikx*mz+z]
		}
		s.padX.InversePadded(plane[z], xline)
	}
	return plane
}
