package core

import (
	"channeldns/internal/banded"
	"channeldns/internal/bspline"
	"channeldns/internal/fft"
	"channeldns/internal/mpi"
	"channeldns/internal/parfft"
)

// Solver holds the distributed state of a channel DNS: B-spline coefficients
// of the wall-normal velocity v and wall-normal vorticity omega_y for every
// locally owned Fourier mode (y-pencil configuration), plus the mean-flow
// profiles on the rank that owns the (0,0) mode.
type Solver struct {
	base

	B    *bspline.Basis
	grev []float64

	// The collocation operator B0/B1/B2 (values and first and second y
	// derivatives at the Greville points, as matvecs; every implicit
	// operator is assembled from its rows, see fillOperator) and the factored
	// interpolation matrix shared by every wavenumber.
	colloc *banded.Colloc
	b0fac  *banded.Compact
	wall   bspline.WallRows

	// State: spline coefficients per local wavenumber.
	cv, cw [][]complex128
	// Previous-substep nonlinear terms (collocation values).
	hgPrev, hvPrev [][]complex128

	// Mean flow (only meaningful on the owner of kx=kz=0).
	ownsMean               bool
	meanU, meanW           []float64 // spline coefficients
	meanHxPrev, meanHzPrev []float64

	// Factored implicit operators, built lazily for the current Dt (see
	// operators.go): the Helmholtz left-hand sides of every distinct
	// transported diffusivity (imp[0] is nu's; the scalar workload appends
	// kappa's when it differs), and per local wavenumber its operator set —
	// the v-recovery operator with its influence data — shared by every mode
	// of equal k2, nil for the mean and Nyquist modes.
	imp   []*implicitOps
	ops   []*wnOps
	opsDt float64

	// Fused dealiasing transforms and the excursion that carries fields
	// through them to the physical grid and back (see nonlinear.go).
	padZ *fft.PaddedComplex
	padX *fft.PaddedReal
	exc  *parfft.Excursion

	scalar *ScalarSolver // set in the scalar workload: theta rides a pass, see pass

	// Steady-state workspace arena (see workspace.go).
	ws *solverWS
}

// New constructs a solver collectively on the world communicator. Every
// rank of the PA x PB grid must call it with identical configuration.
func New(world *mpi.Comm, cfg Config) (*Solver, error) {
	s := &Solver{}
	if err := s.base.init(world, cfg); err != nil {
		return nil, err
	}
	cfg, g := s.Cfg, s.G
	s.checkpointing.self = s
	s.imp = []*implicitOps{{diff: s.nu}}
	s.B = bspline.NewFromBreakpoints(cfg.Degree, bspline.ChannelBreakpoints(cfg.Ny-cfg.Degree, stretch))
	if s.B.NumBasis() != cfg.Ny {
		panic("core: basis size mismatch")
	}
	s.grev = s.B.Greville()
	s.colloc = s.B.Colloc(s.grev)
	s.wall = s.B.WallRows()
	s.b0fac = s.factorOperator(1, 0) // B0 with the wall value rows it has anyway

	s.cv = allocCoef(s.nw, cfg.Ny)
	s.cw = allocCoef(s.nw, cfg.Ny)
	s.hgPrev = allocCoef(s.nw, cfg.Ny)
	s.hvPrev = allocCoef(s.nw, cfg.Ny)

	s.ownsMean = s.kxlo == 0 && s.kzlo == 0
	if s.ownsMean {
		s.meanU = make([]float64, cfg.Ny)
		s.meanW = make([]float64, cfg.Ny)
		s.meanHxPrev = make([]float64, cfg.Ny)
		s.meanHzPrev = make([]float64, cfg.Ny)
	}

	s.padZ = fft.NewPaddedComplex(g.Nz, g.MZ())
	s.padX = fft.NewPaddedReal(g.NKx(), g.MX())
	ikz := make([]complex128, g.Nz)
	for j := range ikz {
		ikz[j] = complex(0, g.Kz(j))
	}
	ikx := make([]complex128, g.NKx())
	for k := range ikx {
		ikx[k] = complex(0, g.Kx(k))
	}
	// Both forms' passes are registered whatever Cfg.Nonlinear says, so the
	// arena does not depend on the form.
	s.exc = parfft.NewExcursion(s.D, s.padZ, s.padX, ikz, ikx, s.tel, &parfft.SixProducts, &convectiveForm)
	s.ws = s.newWorkspace()
	return s, nil
}

func allocCoef(nw, ny int) [][]complex128 {
	out := make([][]complex128, nw)
	for i := range out {
		out[i] = make([]complex128, ny)
	}
	return out
}

// OwnsMean reports whether this rank holds the kx=kz=0 mean-flow state.
func (s *Solver) OwnsMean() bool { return s.ownsMean }

// Basis returns the wall-normal B-spline basis.
func (s *Solver) Basis() *bspline.Basis { return s.B }

// CollocationPoints returns the Greville collocation points in y.
func (s *Solver) CollocationPoints() []float64 { return s.grev }

// VCoef returns the spline coefficients of v-hat for a locally owned mode,
// or nil. The slice aliases solver state.
func (s *Solver) VCoef(ikx, ikz int) []complex128 {
	if w := s.widx(ikx, ikz); w >= 0 {
		return s.cv[w]
	}
	return nil
}

// OmegaCoef returns the spline coefficients of omega_y-hat for a locally
// owned mode, or nil. The slice aliases solver state.
func (s *Solver) OmegaCoef(ikx, ikz int) []complex128 {
	if w := s.widx(ikx, ikz); w >= 0 {
		return s.cw[w]
	}
	return nil
}

// MeanUCoef returns the spline coefficients of the mean streamwise profile
// (owner rank only; nil elsewhere). The slice aliases solver state.
func (s *Solver) MeanUCoef() []float64 { return s.meanU }
