package galerkin

import (
	"fmt"

	"channeldns/internal/banded"
	"channeldns/internal/bspline"
	"channeldns/internal/core"
	"channeldns/internal/fft"
	"channeldns/internal/field"
	"channeldns/internal/mpi"
	"channeldns/internal/parfft"
	"channeldns/internal/pencil"
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
	Cfg core.Config
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

// New constructs a Galerkin solver collectively on the world communicator
// from the collocation solver's run description. Defaults are core's, and
// what the solver cannot run is refused on every rank before anything is
// built (see admit). The nonlinear terms are projected with degree+2
// quadrature points per knot interval.
func New(world *mpi.Comm, cfg core.Config) (*Solver, error) {
	return newSolver(world, cfg, 0)
}

// admit fills cfg's defaults and refuses what the Galerkin solver cannot
// run: any shape core.Config.Validate refuses for the channel workload,
// fewer than degree+6 basis functions, and the fields it does not implement
// — another workload, a form other than the divergence form it projects,
// Overlap, Telemetry and Trace.
func admit(cfg *core.Config) error {
	if cfg.Workload != "" && cfg.Workload != core.WorkloadChannel {
		return fmt.Errorf("galerkin: runs the channel workload only, not %q", cfg.Workload)
	}
	cfg.FillDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	switch {
	case cfg.Ny < cfg.Degree+6:
		return fmt.Errorf("galerkin: Ny=%d too small for degree %d (need >= degree+6)", cfg.Ny, cfg.Degree)
	case cfg.Nonlinear != core.FormDivergence:
		return fmt.Errorf("galerkin: supports only the divergence form")
	case cfg.Overlap:
		return fmt.Errorf("galerkin: runs the serial exchange only (Overlap unsupported)")
	case cfg.Telemetry != nil || cfg.Trace != nil:
		return fmt.Errorf("galerkin: Telemetry and Trace are unsupported")
	}
	return nil
}

// newSolver is New with perInterval quadrature points per knot interval (0
// selects degree+2); ceil((3*degree+1)/2) integrates the Galerkin triple
// products exactly (full wall-normal dealiasing).
func newSolver(world *mpi.Comm, cfg core.Config, perInterval int) (*Solver, error) {
	if err := admit(&cfg); err != nil {
		return nil, err
	}
	if perInterval == 0 {
		perInterval = cfg.Degree + 2
	}
	g := field.NewGrid(cfg.Nx, cfg.Ny, cfg.Nz, cfg.Lx, cfg.Lz)
	s := &Solver{Cfg: cfg, G: g, nu: 1 / cfg.ReTau}
	s.B = bspline.NewFromBreakpoints(cfg.Degree, bspline.ChannelBreakpoints(cfg.Ny-cfg.Degree, cfg.Stretch))
	s.wm = newWeakMatrices(s.B)
	s.qt = newQuadTables(s.B, perInterval)
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

// embed expands reduced coefficients c, which leave out lo basis functions
// at each wall (1 for H^1_0, 2 for H^2_0), to the full basis in dst.
func embed[T float64 | complex128](dst, c []T, lo int) {
	clear(dst)
	copy(dst[lo:len(dst)-lo], c)
}

// coefFull returns the full-basis coefficients of a local mode of f, s.cv
// (lo 2) or s.cw (lo 1); nil if the mode is not owned.
func (s *Solver) coefFull(f [][]complex128, lo, ikx, ikz int) []complex128 {
	w := s.widx(ikx, ikz)
	if w < 0 {
		return nil
	}
	out := make([]complex128, s.Cfg.Ny)
	embed(out, f[w], lo)
	return out
}

// VCoefFull returns the full-basis v-hat coefficients for a local mode
// (nil if not owned).
func (s *Solver) VCoefFull(ikx, ikz int) []complex128 { return s.coefFull(s.cv, 2, ikx, ikz) }

// MeanCoefFull returns the full-basis mean streamwise profile coefficients
// (owner rank; zeros elsewhere).
func (s *Solver) MeanCoefFull() []float64 {
	out := make([]float64, s.Cfg.Ny)
	if s.ownsMean {
		embed(out, s.meanU, 1)
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
			b := core.SMR91.Beta[sub] * dt * s.nu
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
		b := core.SMR91.Beta[sub] * dt * s.nu
		s.meanOp[sub] = weakOp{lo: 1, n: n,
			mats: []*banded.Real{s.wm.m, s.wm.k},
			cfs:  []float64{1, b}}.factored()
	}
}
