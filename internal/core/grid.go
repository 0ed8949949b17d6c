package core

import "math"

// Grid is the spectral grid bookkeeping of a channel field: mode counts,
// wavenumber values, the 3/2-rule quadrature grid sizes, and the storage
// conventions for spectral fields.
//
// Conventions. A real field q(x, y, z) on the channel (x, z periodic with
// lengths Lx, Lz; y in [-1, 1]) is represented as
//
//	q(x, y, z) = sum_{kx=0..NKx-1} sum_{kz} qhat(kx, kz, y) e^{i(ax*kx*x + az*kz'*z)} + c.c.(kx>0)
//
// with ax = 2*pi/Lx, az = 2*pi/Lz. The x direction stores NKx = Nx/2
// one-sided modes (the Nyquist mode is not carried, following the paper's
// customized kernel); the z direction stores Nz modes in FFT wrap order
// with the Nyquist slot held at zero. kz' is the signed wavenumber of wrap
// slot kz.
type Grid struct {
	Nx, Ny, Nz int     // full x modes, y basis size, full z modes
	Lx, Lz     float64 // periodic domain lengths
}

// NewGrid returns the Grid of the given shape. It checks nothing:
// Config.Validate owns the shape checks.
func NewGrid(nx, ny, nz int, lx, lz float64) Grid {
	return Grid{Nx: nx, Ny: ny, Nz: nz, Lx: lx, Lz: lz}
}

// NKx returns the number of one-sided x modes carried (Nyquist dropped).
func (g Grid) NKx() int { return g.Nx / 2 }

// MX returns the 3/2-rule physical grid size in x.
func (g Grid) MX() int { return 3 * g.Nx / 2 }

// MZ returns the 3/2-rule physical grid size in z.
func (g Grid) MZ() int { return 3 * g.Nz / 2 }

// Alpha returns the fundamental x wavenumber 2*pi/Lx.
func (g Grid) Alpha() float64 { return 2 * math.Pi / g.Lx }

// Beta returns the fundamental z wavenumber 2*pi/Lz.
func (g Grid) Beta() float64 { return 2 * math.Pi / g.Lz }

// Kx returns the physical x wavenumber of one-sided mode index i.
func (g Grid) Kx(i int) float64 { return g.Alpha() * float64(i) }

// KzIndex returns the signed z mode number of wrap slot j: j for
// j < Nz/2, j-Nz for j > Nz/2, and 0 for the (empty) Nyquist slot.
func (g Grid) KzIndex(j int) int {
	if j < g.Nz/2 {
		return j
	}
	if j == g.Nz/2 {
		return 0 // Nyquist slot, always zero
	}
	return j - g.Nz
}

// Kz returns the physical z wavenumber of wrap slot j.
func (g Grid) Kz(j int) float64 { return g.Beta() * float64(g.KzIndex(j)) }

// K2 returns kx^2 + kz^2 for mode (i, j).
func (g Grid) K2(i, j int) float64 {
	kx, kz := g.Kx(i), g.Kz(j)
	return kx*kx + kz*kz
}

// IsNyquistZ reports whether wrap slot j is the (uncarried) z Nyquist mode.
func (g Grid) IsNyquistZ(j int) bool { return j == g.Nz/2 }

// DOF returns the number of real degrees of freedom of one field:
// three velocity components are DOF()*3 as the paper counts them.
func (g Grid) DOF() int { return g.Nx * g.Ny * g.Nz }

// ConjIndexZ returns the wrap slot holding the conjugate partner of slot j
// on the kx = 0 plane: slot of -kz'.
func (g Grid) ConjIndexZ(j int) int {
	if j == 0 || j == g.Nz/2 {
		return j
	}
	return g.Nz - j
}
