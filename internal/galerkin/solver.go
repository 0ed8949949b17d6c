package galerkin

import (
	"fmt"
	"math"

	"channeldns/internal/banded"
	"channeldns/internal/bspline"
	"channeldns/internal/fft"
	"channeldns/internal/field"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/parfft"
	"channeldns/internal/pencil"
)

// Config mirrors the collocation solver's configuration for the fields the
// Galerkin discretization uses.
type Config struct {
	Nx, Ny, Nz       int
	Lx, Lz           float64
	ReTau            float64
	Dt               float64
	Degree           int
	Stretch          float64
	PA, PB           int
	Pool             *par.Pool
	Forcing          float64
	DisableNonlinear bool
	// QuadPerInterval sets the nonlinear quadrature density; 0 selects
	// degree+2 points per knot interval. ceil((3*degree+1)/2) integrates
	// the Galerkin triple products exactly (full wall-normal dealiasing).
	QuadPerInterval int
}

func (c *Config) fillDefaults() {
	if c.Degree == 0 {
		c.Degree = 7
	}
	if c.Stretch == 0 {
		c.Stretch = 0.85
	}
	if c.PA == 0 {
		c.PA = 1
	}
	if c.PB == 0 {
		c.PB = 1
	}
	if c.Lx == 0 {
		c.Lx = 2 * math.Pi
	}
	if c.Lz == 0 {
		c.Lz = math.Pi
	}
	if c.QuadPerInterval == 0 {
		c.QuadPerInterval = c.Degree + 2
	}
}

// SMR'91 coefficients, as in the collocation solver.
var (
	rkGamma = [3]float64{8.0 / 15.0, 5.0 / 12.0, 3.0 / 4.0}
	rkZeta  = [3]float64{0, -17.0 / 60.0, -5.0 / 12.0}
	rkAlpha = [3]float64{4.0 / 15.0, 1.0 / 15.0, 1.0 / 6.0}
	rkBeta  = [3]float64{4.0 / 15.0, 1.0 / 15.0, 1.0 / 6.0}
)

// gops caches the factored implicit operators for one wavenumber.
type gops struct {
	k2         float64
	lhsO, lhsV [3]*banded.Compact
}

// Solver is the Galerkin-in-y channel DNS. State lives in the reduced
// spline coefficient spaces: omega_y in H^1_0 (Ny-2 coefficients) and v in
// H^2_0 (Ny-4 coefficients) per locally owned Fourier mode.
type Solver struct {
	Cfg Config
	G   field.Grid
	D   *pencil.Decomp
	B   *bspline.Basis
	wm  *weakMatrices
	qt  *quadTables // nonlinear quadrature rule
	nu  float64

	ng, nv int // reduced sizes: Ny-2, Ny-4

	kxlo, kxhi, kzlo, kzhi int
	nw                     int

	cv, cw           [][]complex128 // reduced coefficients per local mode
	fhgPrev, fhvPrev [][]complex128 // projected nonlinear terms
	ownsMean         bool
	meanU, meanW     []float64 // reduced H^1_0 coefficients
	meanFxPrev       []float64
	meanFzPrev       []float64
	bInt             []float64 // int B_i dy, reduced H^1_0
	ops              []*gops
	opsDt            float64
	meanOp           [3]*banded.Compact
	exc              *parfft.Excursion // dealiased product pipeline

	Time float64
	Step int
}

// New constructs a Galerkin solver collectively on the world communicator.
func New(world *mpi.Comm, cfg Config) (*Solver, error) {
	cfg.fillDefaults()
	if cfg.ReTau <= 0 || cfg.Dt <= 0 {
		return nil, fmt.Errorf("galerkin: ReTau and Dt must be positive")
	}
	if cfg.Ny < cfg.Degree+6 {
		return nil, fmt.Errorf("galerkin: Ny=%d too small for degree %d (need >= degree+6)", cfg.Ny, cfg.Degree)
	}
	g := field.NewGrid(cfg.Nx, cfg.Ny, cfg.Nz, cfg.Lx, cfg.Lz)
	s := &Solver{Cfg: cfg, G: g, nu: 1 / cfg.ReTau}
	s.B = bspline.NewFromBreakpoints(cfg.Degree, bspline.ChannelBreakpoints(cfg.Ny-cfg.Degree, cfg.Stretch))
	s.wm = newWeakMatrices(s.B)
	s.qt = newQuadTables(s.B, cfg.QuadPerInterval)
	s.ng = cfg.Ny - 2
	s.nv = cfg.Ny - 4

	// Pencil decomposition carries quadrature-point values in y.
	s.D = pencil.New(world, cfg.PA, cfg.PB, g.NKx(), g.Nz, s.qt.NumQuad(), cfg.Pool)
	s.kxlo, s.kxhi = s.D.KxRange()
	s.kzlo, s.kzhi = s.D.KzRangeY()
	s.nw = (s.kxhi - s.kxlo) * (s.kzhi - s.kzlo)

	alloc := func(n int) [][]complex128 {
		out := make([][]complex128, s.nw)
		for i := range out {
			out[i] = make([]complex128, n)
		}
		return out
	}
	s.cv = alloc(s.nv)
	s.cw = alloc(s.ng)
	s.fhgPrev = alloc(s.ng)
	s.fhvPrev = alloc(s.nv)

	s.ownsMean = s.kxlo == 0 && s.kzlo == 0
	if s.ownsMean {
		s.meanU = make([]float64, s.ng)
		s.meanW = make([]float64, s.ng)
		s.meanFxPrev = make([]float64, s.ng)
		s.meanFzPrev = make([]float64, s.ng)
	}
	full := s.B.IntegrationWeights()
	s.bInt = append([]float64(nil), full[1:cfg.Ny-1]...)

	s.exc = parfft.NewExcursion(s.D, fft.NewPaddedComplex(g.Nz, g.MZ()), fft.NewPaddedReal(g.NKx(), g.MX()),
		nil, nil, nil, &parfft.SixProducts)
	return s, nil
}

func (s *Solver) widx(ikx, ikz int) int {
	if ikx < s.kxlo || ikx >= s.kxhi || ikz < s.kzlo || ikz >= s.kzhi {
		return -1
	}
	return (ikx-s.kxlo)*(s.kzhi-s.kzlo) + (ikz - s.kzlo)
}

func (s *Solver) modeOf(w int) (int, int) {
	nkz := s.kzhi - s.kzlo
	return s.kxlo + w/nkz, s.kzlo + w%nkz
}

// World returns the full communicator.
func (s *Solver) World() *mpi.Comm { return s.D.Cart.Comm }

// Nu returns the kinematic viscosity.
func (s *Solver) Nu() float64 { return s.nu }

// embedV expands reduced H^2_0 coefficients to the full basis.
func (s *Solver) embedV(dst []complex128, c []complex128) {
	for i := range dst {
		dst[i] = 0
	}
	copy(dst[2:s.Cfg.Ny-2], c)
}

// embedG expands reduced H^1_0 coefficients to the full basis.
func (s *Solver) embedG(dst []complex128, c []complex128) {
	for i := range dst {
		dst[i] = 0
	}
	copy(dst[1:s.Cfg.Ny-1], c)
}

func (s *Solver) embedGReal(dst []float64, c []float64) {
	for i := range dst {
		dst[i] = 0
	}
	copy(dst[1:s.Cfg.Ny-1], c)
}

// VCoefFull returns the full-basis v-hat coefficients for a local mode
// (nil if not owned).
func (s *Solver) VCoefFull(ikx, ikz int) []complex128 {
	w := s.widx(ikx, ikz)
	if w < 0 {
		return nil
	}
	out := make([]complex128, s.Cfg.Ny)
	s.embedV(out, s.cv[w])
	return out
}

// OmegaCoefFull returns the full-basis omega_y-hat coefficients.
func (s *Solver) OmegaCoefFull(ikx, ikz int) []complex128 {
	w := s.widx(ikx, ikz)
	if w < 0 {
		return nil
	}
	out := make([]complex128, s.Cfg.Ny)
	s.embedG(out, s.cw[w])
	return out
}

// MeanCoefFull returns the full-basis mean streamwise profile coefficients
// (owner rank; zeros elsewhere).
func (s *Solver) MeanCoefFull() []float64 {
	out := make([]float64, s.Cfg.Ny)
	if s.ownsMean {
		s.embedGReal(out, s.meanU)
	}
	return mpi.Bcast(s.World(), 0, out)
}

// ensureOps (re)builds the per-mode factored operators for time step dt:
//
//	omega:  [M + b(K + k2 M)] c_new = [M - a(K + k2 M)] c_old + dt*(...)
//	v:      [G + b S] c_new = [G - a S] c_old - dt*(...),
//	        G = K + k2 M,  S = Q + 2 k2 K + k4 M
//
// with a = alpha*dt*nu and b = beta*dt*nu per substep.
func (s *Solver) ensureOps(dt float64) {
	if s.ops != nil && s.opsDt == dt {
		return
	}
	s.opsDt = dt
	s.ops = make([]*gops, s.nw)
	n := s.Cfg.Ny
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			continue
		}
		k2 := s.G.K2(ikx, ikz)
		op := &gops{k2: k2}
		for sub := 0; sub < 3; sub++ {
			b := rkBeta[sub] * dt * s.nu
			op.lhsO[sub] = weakOp{lo: 1, n: n,
				mats: []*banded.Real{s.wm.m, s.wm.k},
				cfs:  []float64{1 + b*k2, b}}.factored()
			op.lhsV[sub] = weakOp{lo: 2, n: n,
				mats: []*banded.Real{s.wm.m, s.wm.k, s.wm.q},
				cfs:  []float64{k2 + b*k2*k2, 1 + 2*b*k2, b}}.factored()
		}
		s.ops[w] = op
	}
	for sub := 0; sub < 3; sub++ {
		b := rkBeta[sub] * dt * s.nu
		s.meanOp[sub] = weakOp{lo: 1, n: n,
			mats: []*banded.Real{s.wm.m, s.wm.k},
			cfs:  []float64{1, b}}.factored()
	}
}
