package core

// Passive-scalar transport advected by the turbulent channel flow: the
// third registered workload. A scalar theta (temperature in the usual
// reading) rides the channel solver's velocity field,
//
//	d theta/dt + d(u_j theta)/dx_j = kappa * Laplacian(theta),
//
// with kappa = nu/Prandtl, fixed wall values Theta(-1) = +1, Theta(+1) = -1
// (heated bottom wall, cooled top wall) and the same Fourier x/z +
// B-spline y discretization and IMEX RK3 advance as the momentum
// equations. Like the mean flow, the (0,0) scalar profile is advanced
// separately on its owner rank; fluctuations carry homogeneous Dirichlet
// walls.
//
// The scalar adds no excursion of its own. Each substep theta goes out to the
// dealiased physical grid as one more input of a pass the momentum terms
// already run, u*theta, v*theta, w*theta are formed on the same physical
// lines as the momentum products and come back behind them, and
//
//	h_theta = -(i kx (u theta) + i kz (w theta) + d/dy (v theta))
//
// is assembled per mode like the momentum terms. The velocities so cross the
// transposes and inverse transforms once per substep, and every line still
// sees the transforms it would see in a pass of its own: the same bits.

import (
	"fmt"

	"channeldns/internal/mpi"
	"channeldns/internal/parfft"
	"channeldns/internal/telemetry"
)

// ScalarSolver embeds the full channel solver and carries the scalar state
// alongside it. Go embedding has no virtual dispatch, so every method whose
// behavior must include the scalar (StepOnce, InitDefault, StatusLine) is
// overridden explicitly here; checkpoints carry the scalar because NewScalar
// appends its slices to the channel's lists.
type ScalarSolver struct {
	*Solver
	kappa float64

	// Spline coefficients of theta-hat per local mode, and the
	// previous-substep scalar term (collocation values).
	cth     [][]complex128
	hthPrev [][]complex128
	hthCur  [][]complex128

	// Mean scalar profile (owner of kx=kz=0 only).
	meanTh                  []float64
	meanHthPrev, meanHthCur []float64

	// kappa's Helmholtz left-hand sides, rebuilt with the channel solver's
	// operator caches (see Solver.ensureOps): nu's own when kappa == nu.
	diffusive *implicitOps

	// theta rides carrier, one of the momentum passes: Solver.pass runs
	// carried = withScalar(carrier) in its place and leaves the fluxes here.
	// They alias the excursion's outputs behind carrier's own, which the
	// skew form's second, narrower pass does not touch.
	carrier *parfft.Spec
	carried parfft.Spec
	fluxes  [][]complex128
}

// withScalar returns sp with theta as one more input behind its own and the
// fluxes u*theta, v*theta, w*theta as three more outputs behind its own; sp's
// first three inputs are the velocities.
func withScalar(sp parfft.Spec) parfft.Spec {
	theta, own, kernel := sp.In, sp.Out, sp.Kernel
	sp.In, sp.Out = theta+1, own+3
	sp.Kernel = func(out []float64, c int, phys, dz, dx [][]float64) {
		if c < own {
			kernel(out, c, phys, dz, dx)
			return
		}
		a, th := phys[c-own][:len(out)], phys[theta][:len(out)]
		for i := range out {
			out[i] = a[i] * th[i]
		}
	}
	return sp
}

// NewScalar constructs the passive-scalar workload collectively on the
// world communicator.
func NewScalar(world *mpi.Comm, cfg Config) (*ScalarSolver, error) {
	cfg.Workload = WorkloadScalar
	inner, err := New(world, cfg)
	if err != nil {
		return nil, err
	}
	t := &ScalarSolver{Solver: inner, kappa: inner.nu / inner.Cfg.Prandtl}
	t.diffusive = inner.imp[0] // Pr = 1: theta and Theta solve against nu's
	if t.kappa != inner.nu {
		t.diffusive = &implicitOps{diff: t.kappa}
		inner.imp = append(inner.imp, t.diffusive)
	}
	ny := inner.Cfg.Ny
	t.cth = allocCoef(inner.nw, ny)
	t.hthPrev = allocCoef(inner.nw, ny)
	t.hthCur = allocCoef(inner.nw, ny)
	inner.fields = append(inner.fields, &t.cth, &t.hthPrev)
	if inner.ownsMean {
		t.meanTh = make([]float64, ny)
		t.meanHthPrev = make([]float64, ny)
		t.meanHthCur = make([]float64, ny)
		inner.means = append(inner.means, &t.meanTh, &t.meanHthPrev)
	}
	t.carrier = &parfft.SixProducts // also under the skew form
	if inner.Cfg.DisableNonlinear {
		t.carrier = &parfft.Spec{In: 3} // no momentum pass: the velocities out, nothing back
	} else if inner.Cfg.Nonlinear == FormConvective {
		t.carrier = &convectiveForm
	}
	t.carried = withScalar(*t.carrier)
	inner.exc.Register(&t.carried)
	inner.scalar = t
	return t, nil
}

// SetMeanScalarProfile sets the mean scalar profile Theta(y) on the owner
// rank (no-op elsewhere). The profile should satisfy Theta(-1) = +1,
// Theta(+1) = -1 to be compatible with the wall conditions.
func (t *ScalarSolver) SetMeanScalarProfile(f func(y float64) float64) {
	if !t.ownsMean {
		return
	}
	vals := make([]float64, t.Cfg.Ny)
	for i, y := range t.grev {
		vals[i] = f(y)
	}
	copy(t.meanTh, t.B.Interpolate(vals))
}

// SetConduction sets the pure-conduction profile Theta(y) = -y, the steady
// no-flow solution between the heated walls.
func (t *ScalarSolver) SetConduction() {
	t.SetMeanScalarProfile(func(y float64) float64 { return -y })
}

// PerturbScalar adds wall-compatible scalar disturbances to all locally
// owned modes perturbMode admits.
func (t *ScalarSolver) PerturbScalar(amp float64, kxMax, kzMax int, seed int64) {
	for w := 0; w < t.nw; w++ {
		ikx, ikz := t.modeOf(w)
		a, ok := perturbMode(t.G, ikx, ikz, kxMax, kzMax, amp, seed, 2)
		if !ok {
			continue
		}
		// Shape (1-y^2) satisfies theta = 0 at both walls.
		t.setShape(t.cth[w], a, func(y float64) float64 { return 1 - y*y })
	}
}

// InitDefault seeds the canonical scalar-channel initial condition: the
// channel default (laminar profile + perturbation) plus the conduction
// scalar profile and a matching scalar perturbation.
func (t *ScalarSolver) InitDefault(amp float64, seed int64) {
	t.Solver.InitDefault(amp, seed)
	t.SetConduction()
	t.PerturbScalar(amp, 2, 2, seed)
}

// modeTheta evaluates theta of local mode w at the collocation points, +0 in
// the z Nyquist slot, like modeVelocity.
func (t *ScalarSolver) modeTheta(line []complex128, w int, wk *wsWorker) {
	ikx, ikz := t.modeOf(w)
	switch {
	case t.G.IsNyquistZ(ikz):
		clear(line)
	case ikx != 0 || ikz != 0:
		t.colloc.Mul(0, line, t.cth[w])
	default: // the mean, local only where t.ownsMean
		t.meanLine(line, 0, t.meanTh, wk.rl)
	}
}

// scalarTerms assembles h_theta (collocation values per local mode) and the
// mean scalar forcing profile on the owner rank from the fluxes of the
// substage velocity: those nonlinearTerms' pass brought back or, with the
// convective terms frozen, the carrier's, run here. Call before advanceSubstep.
func (t *ScalarSolver) scalarTerms() (hth [][]complex128, meanHth []float64) {
	s := t.Solver
	ws := s.ws
	g := s.G
	ny := s.Cfg.Ny
	hth = t.hthCur
	meanHth = t.meanHthCur
	if s.Cfg.DisableNonlinear {
		s.pass(t.carrier, false) // the frozen carrier has no velocities to harvest
	}
	prods := t.fluxes

	// Assemble h_theta = -(i kx (u th) + i kz (w th) + d/dy (v th)).
	sp := s.tel.Begin(telemetry.PhaseNonlinear)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		wk := &ws.workers[blk]
		tmp := wk.ln[0]
		for w := wlo; w < whi; w++ {
			ikx, ikz := s.modeOf(w)
			if g.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
				continue
			}
			kx, kz := g.Kx(ikx), g.Kz(ikz)
			base := w * ny
			ikxC := complex(0, kx)
			ikzC := complex(0, kz)
			s.ddy(tmp, 1, prods[1][base:base+ny], wk.ln[1])
			hw := hth[w]
			for i := 0; i < ny; i++ {
				hw[i] = -(ikxC*prods[0][base+i] + ikzC*prods[2][base+i] + tmp[i])
			}
		}
	})
	if s.ownsMean {
		// Mean scalar: H_theta(0,0) = -d<v theta>/dy.
		base := s.widx(0, 0) * ny
		s.meanFluxTerm(meanHth, prods[1][base:base+ny])
	}
	sp.End()
	return hth, meanHth
}

// advanceScalar performs the implicit scalar advance for one substep:
// fluctuations with homogeneous Dirichlet walls, then the mean profile with
// the fixed wall values Theta(-1) = +1, Theta(+1) = -1 (heated bottom wall,
// cooled top wall) on the owner rank.
func (t *ScalarSolver) advanceScalar(sub int, dt float64, hth [][]complex128, mHth []float64) {
	s := t.Solver
	sp := s.tel.Begin(telemetry.PhaseViscousSolve)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			if op := s.ops[w]; op != nil { // neither mean nor Nyquist
				s.advanceRHS(t.diffusive, w, sub, dt, t.cth[w], hth[w], t.hthPrev[w], &s.ws.workers[blk])
				t.diffusive.lhs[op.set][sub].SolveComplex(t.cth[w])
			}
		}
	})
	if s.ownsMean {
		s.advanceMeanLine(t.diffusive, sub, dt, t.meanTh, mHth, t.meanHthPrev, 0, 1, -1)
	}
	sp.End()
}

// StepOnce advances flow and scalar by one full time step: the channel
// substep sequence with the scalar's assembly and advance beside the
// momentum ones.
func (t *ScalarSolver) StepOnce() {
	s := t.Solver
	dt := s.beginStep()
	s.ensureOps(dt)
	for sub := 0; sub < 3; sub++ {
		s.trc.SetStage(sub)
		hg, hv, mHx, mHz := s.nonlinearTerms(sub == 2)
		hth, mHth := t.scalarTerms()
		s.advanceSubstep(sub, dt, hg, hv, mHx, mHz)
		t.advanceScalar(sub, dt, hth, mHth)
		s.swapNonlinear(hg, hv, mHx, mHz)
		t.hthPrev, t.hthCur = hth, t.hthPrev
		t.meanHthPrev, t.meanHthCur = mHth, t.meanHthPrev // nil off the owner rank
	}
	s.endStep(dt)
}

// ScalarVariance integrates the scalar fluctuation variance over y (times
// 1/2), by the same quadrature TotalEnergy uses. Collective.
func (t *ScalarSolver) ScalarVariance() float64 {
	s := t.Solver
	ny := s.Cfg.Ny
	prof := make([]float64, ny)
	vals := make([]complex128, ny)
	s.eachMode(func(w, ikx, ikz int, wt float64) {
		if ikx == 0 && ikz == 0 {
			return
		}
		s.colloc.Mul(0, vals, t.cth[w])
		for i := 0; i < ny; i++ {
			prof[i] += wt * sq(vals[i])
		}
	})
	prof = mpi.Allreduce(s.World(), mpi.OpSum, prof)
	c := s.B.Interpolate(prof)
	wts := s.B.IntegrationWeights()
	v := 0.0
	for i := range wts {
		v += wts[i] * c[i]
	}
	return v / 2
}

// WallScalarFlux returns |dTheta/dy| at the lower wall, the conductive
// wall flux (1 in pure conduction, larger once turbulence mixes).
// Collective.
func (t *ScalarSolver) WallScalarFlux() float64 {
	s := t.Solver
	var q float64
	if s.ownsMean {
		lo, _ := s.wallDerivReal(t.meanTh)
		if lo < 0 {
			lo = -lo
		}
		q = lo
	}
	return mpi.Bcast(s.World(), 0, []float64{q})[0]
}

// StatusLine extends the channel status with the scalar variance and wall
// flux. Collective.
func (t *ScalarSolver) StatusLine() string {
	return t.Solver.StatusLine() + fmt.Sprintf("  th2=%9.2e  q_w=%6.4f", t.ScalarVariance(), t.WallScalarFlux())
}
