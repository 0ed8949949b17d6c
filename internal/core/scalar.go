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
// Each substep the scalar adds one extra excursion through the existing
// transpose/FFT cycle: the three velocities and theta go out to the
// dealiased physical grid (4 fields), the flux products u*theta, v*theta,
// w*theta come back (3 fields), and the divergence-form right-hand side
//
//	h_theta = -(i kx (u theta) + i kz (w theta) + d/dy (v theta))
//
// is assembled per mode exactly like the momentum terms. The pass runs on
// the channel solver's excursion: by the time it runs, the momentum pass's
// field buffers are dead until the next substep, and the pass fully rewrites
// every element it reads.

import (
	"fmt"
	"time"

	"channeldns/internal/banded"
	"channeldns/internal/ckpt"
	"channeldns/internal/mpi"
	"channeldns/internal/parfft"
	"channeldns/internal/telemetry"
)

// ScalarSolver embeds the full channel solver and carries the scalar state
// alongside it. Go embedding has no virtual dispatch, so every method whose
// behavior must include the scalar (StepOnce, InitDefault, StatusLine,
// CheckpointState) is overridden explicitly here; the shared checkpoint
// methods reach the overrides through checkpointing.self.
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

	// Per-wavenumber factored implicit operators for the current dt.
	sOps     []*scalarOps
	sMeanOps [3]*banded.Compact
	sOpsDt   float64
}

type scalarOps struct {
	lhs [3]*banded.Compact
}

// NewScalar constructs the passive-scalar workload collectively on the
// world communicator.
func NewScalar(world *mpi.Comm, cfg Config) (*ScalarSolver, error) {
	cfg.fillDefaults()
	cfg.Workload = WorkloadScalar
	if cfg.Overlap {
		return nil, fmt.Errorf("core: the scalar workload runs the serial exchange only (Overlap unsupported)")
	}
	if cfg.Prandtl <= 0 {
		return nil, fmt.Errorf("core: Prandtl must be positive, got %g", cfg.Prandtl)
	}
	inner, err := New(world, cfg)
	if err != nil {
		return nil, err
	}
	t := &ScalarSolver{
		Solver: inner,
		kappa:  inner.nu / cfg.Prandtl,
	}
	inner.checkpointing.self = t
	ny := cfg.Ny
	t.cth = allocCoef(inner.nw, ny)
	t.hthPrev = allocCoef(inner.nw, ny)
	t.hthCur = allocCoef(inner.nw, ny)
	if inner.ownsMean {
		t.meanTh = make([]float64, ny)
		t.meanHthPrev = make([]float64, ny)
		t.meanHthCur = make([]float64, ny)
	}
	inner.exc.Register(&scalarFlux)
	if t.tel != nil {
		// The flop credit must match the scalar schedule, not the channel's.
		t.stepFlops = int64(t.Cfg.ScalarSchedule().TotalFlops() / float64(world.Size()))
	}
	return t, nil
}

// WorkloadName identifies the scalar workload (the embedded solver's
// configuration carries it, but be explicit).
func (t *ScalarSolver) WorkloadName() string { return WorkloadScalar }

// Kappa returns the scalar diffusivity nu/Prandtl.
func (t *ScalarSolver) Kappa() float64 { return t.kappa }

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
// owned modes with |kx index| <= kxMax and |kz index| <= kzMax (excluding
// the mean), deterministic in (seed, mode) with conjugate symmetry on the
// kx = 0 plane.
func (t *ScalarSolver) PerturbScalar(amp float64, kxMax, kzMax int, seed int64) {
	for w := 0; w < t.nw; w++ {
		ikx, ikz := t.modeOf(w)
		if t.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			continue
		}
		kzIdx := t.G.KzIndex(ikz)
		if ikx > kxMax || kzIdx > kzMax || kzIdx < -kzMax {
			continue
		}
		a := modePhase(seed, ikx, kzIdx, 2)
		if ikx == 0 && kzIdx < 0 {
			a = conj(modePhase(seed, 0, -kzIdx, 2))
		}
		a *= complex(amp, 0)
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

// ensureSOps rebuilds the scalar operator cache when the time step changes:
// per mode, lhs[s] = B0 - beta_s*dt*kappa*(B2 - k2*B0) with wall value rows,
// plus the mean operators at k2 = 0.
func (t *ScalarSolver) ensureSOps(dt float64) {
	if t.sOps != nil && t.sOpsDt == dt {
		return
	}
	t.sOps = make([]*scalarOps, t.nw)
	t.sOpsDt = dt
	for w := 0; w < t.nw; w++ {
		ikx, ikz := t.modeOf(w)
		if t.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			continue
		}
		k2 := t.G.K2(ikx, ikz)
		op := &scalarOps{}
		for sub := 0; sub < 3; sub++ {
			c := rkBeta[sub] * dt * t.kappa
			lhs, err := t.assembleLHS(c, k2)
			if err != nil {
				panic(fmt.Sprintf("core: singular scalar operator k2=%g: %v", k2, err))
			}
			op.lhs[sub] = lhs
		}
		t.sOps[w] = op
	}
	for sub := 0; sub < 3; sub++ {
		c := rkBeta[sub] * dt * t.kappa
		m, err := t.assembleLHS(c, 0)
		if err != nil {
			panic(fmt.Sprintf("core: singular scalar mean operator: %v", err))
		}
		t.sMeanOps[sub] = m
	}
}

// scalarFlux is the scalar's excursion pass: u, v, w and theta go out, the
// flux products u*theta, v*theta, w*theta come back.
var scalarFlux = parfft.Spec{In: 4, Out: 3, Kernel: func(out []float64, c int, phys [][]float64) {
	a, th := phys[c], phys[3]
	for i := range out {
		out[i] = a[i] * th[i]
	}
}}

// scalarTerms evaluates h_theta (collocation values per local mode) and
// the mean scalar forcing profile on the owner rank, via the extra
// transpose/FFT excursion described in the package comment. It must run
// before advanceSubstep updates the velocity state, so the scalar sees the
// same substage velocity the momentum terms did.
func (t *ScalarSolver) scalarTerms() (hth [][]complex128, meanHth []float64) {
	s := t.Solver
	ws := s.ws
	g := s.G
	ny := s.Cfg.Ny
	hth = t.hthCur
	meanHth = t.meanHthCur

	// Velocity values at this substage (recomputed — the pipeline buffers
	// that held them were consumed by the momentum pass) plus theta values,
	// as the 4-field y-pencil block the excursion carries out.
	s.velocityValues()
	theta := s.exc.In(scalarFlux.In)[3]
	sp := s.tel.Begin(telemetry.PhasePressure)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		wk := &ws.workers[blk]
		th := wk.ln[0]
		for w := wlo; w < whi; w++ {
			ikx, ikz := s.modeOf(w)
			if g.IsNyquistZ(ikz) {
				continue // stays zero
			}
			base := w * ny
			if ikx == 0 && ikz == 0 {
				if s.ownsMean {
					tvals := wk.rl[0]
					s.b0.MulVec(tvals, t.meanTh)
					for i := 0; i < ny; i++ {
						theta[base+i] = complex(tvals[i], 0)
					}
				}
				continue
			}
			s.b0.MulVecComplex(th, t.cth[w])
			copy(theta[base:base+ny], th)
		}
	})
	sp.End()

	prods := s.exc.Run(&scalarFlux)

	// Assemble h_theta = -(i kx (u th) + i kz (w th) + d/dy (v th)).
	sp = s.tel.Begin(telemetry.PhaseNonlinear)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		wk := &ws.workers[blk]
		tmp := wk.ln[0]
		sol := wk.ln[1]
		for w := wlo; w < whi; w++ {
			ikx, ikz := s.modeOf(w)
			if g.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
				continue
			}
			kx, kz := g.Kx(ikx), g.Kz(ikz)
			base := w * ny
			ikxC := complex(0, kx)
			ikzC := complex(0, kz)
			copy(sol, prods[1][base:base+ny])
			s.b0fac.SolveComplex(sol)
			s.b1.MulVecComplex(tmp, sol)
			hw := hth[w]
			for i := 0; i < ny; i++ {
				hw[i] = -(ikxC*prods[0][base+i] + ikzC*prods[2][base+i] + tmp[i])
			}
		}
	})
	if s.ownsMean {
		// Mean scalar: H_theta(0,0) = -d<v theta>/dy.
		w00 := s.widx(0, 0)
		base := w00 * ny
		cvt := ws.meanS0
		for i := 0; i < ny; i++ {
			cvt[i] = real(prods[1][base+i])
		}
		s.b0fac.SolveReal(cvt)
		s.b1.MulVec(meanHth, cvt)
		for i := 0; i < ny; i++ {
			meanHth[i] = -meanHth[i]
		}
	}
	sp.End()
	return hth, meanHth
}

// advanceScalar performs the implicit scalar advance for one substep:
// fluctuations with homogeneous Dirichlet walls, then the mean profile with
// the fixed wall values Theta(-1) = +1, Theta(+1) = -1 on the owner rank.
func (t *ScalarSolver) advanceScalar(sub int, dt float64, hth [][]complex128, mHth []float64) {
	s := t.Solver
	sp := s.tel.Begin(telemetry.PhaseViscousSolve)
	ny := s.Cfg.Ny
	ga := rkGamma[sub]
	ze := rkZeta[sub]
	al := rkAlpha[sub] * dt * t.kappa

	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		wk := &s.ws.workers[blk]
		rhs := wk.ln[0]
		vals := wk.ln[1]
		lap := wk.ln[2]
		helmTmp := wk.ln[3]
		for w := wlo; w < whi; w++ {
			op := t.sOps[w]
			if op == nil {
				continue // mean or Nyquist
			}
			k2 := s.G.K2(s.modeOf(w))
			s.b0.MulVecComplex(vals, t.cth[w])
			s.applyHelmValues(lap, t.cth[w], k2, helmTmp)
			for i := 0; i < ny; i++ {
				rhs[i] = vals[i] + complex(al, 0)*lap[i] +
					complex(dt, 0)*(complex(ga, 0)*hth[w][i]+complex(ze, 0)*t.hthPrev[w][i])
			}
			rhs[0], rhs[ny-1] = 0, 0 // theta(+-1) = 0 (fluctuations)
			op.lhs[sub].SolveComplex(rhs)
			copy(t.cth[w], rhs)
		}
	})

	if s.ownsMean {
		rhs := s.ws.meanS0
		lap := s.ws.meanS1
		s.b0.MulVec(rhs, t.meanTh)
		s.b2.MulVec(lap, t.meanTh)
		for i := 0; i < ny; i++ {
			rhs[i] += al*lap[i] + dt*(ga*mHth[i]+ze*t.meanHthPrev[i])
		}
		rhs[0], rhs[ny-1] = 1, -1 // heated bottom wall, cooled top wall
		t.sMeanOps[sub].SolveReal(rhs)
		copy(t.meanTh, rhs)
	}
	sp.End()
}

// StepOnce advances flow and scalar by one full time step: the channel
// substep sequence with the scalar pass inserted between the nonlinear
// evaluation (which must see the pre-advance velocity) and the buffer swap.
func (t *ScalarSolver) StepOnce() {
	s := t.Solver
	t0 := time.Now()
	dt := s.Cfg.Dt
	s.ensureOps(dt)
	t.ensureSOps(dt)
	s.trc.BeginStep(int64(s.Step))
	for sub := 0; sub < 3; sub++ {
		s.trc.SetStage(sub)
		hg, hv, mHx, mHz := s.nonlinearTerms()
		hth, mHth := t.scalarTerms()
		s.advanceSubstep(sub, dt, hg, hv, mHx, mHz)
		t.advanceScalar(sub, dt, hth, mHth)
		s.hgPrev, s.ws.hgCur = hg, s.hgPrev
		s.hvPrev, s.ws.hvCur = hv, s.hvPrev
		t.hthPrev, t.hthCur = hth, t.hthPrev
		if s.ownsMean {
			s.meanHxPrev, s.ws.meanHxCur = mHx, s.meanHxPrev
			s.meanHzPrev, s.ws.meanHzCur = mHz, s.meanHzPrev
			t.meanHthPrev, t.meanHthCur = mHth, t.meanHthPrev
		}
	}
	s.trc.SetStage(-1)
	s.trc.EndStep(t0, time.Now())
	s.Time += dt
	s.Step++
	s.tel.StepDone(time.Since(t0))
	s.tel.AddFlops(s.stepFlops)
}

// ScalarVariance integrates the scalar fluctuation variance over y (times
// 1/2), by the same quadrature TotalEnergy uses. Collective.
func (t *ScalarSolver) ScalarVariance() float64 {
	s := t.Solver
	ny := s.Cfg.Ny
	prof := make([]float64, ny)
	vals := make([]complex128, ny)
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			continue
		}
		wt := 2.0
		if ikx == 0 {
			wt = 1.0
		}
		s.b0.MulVecComplex(vals, t.cth[w])
		for i := 0; i < ny; i++ {
			prof[i] += wt * sq(vals[i])
		}
	}
	prof = mpi.Allreduce(s.World(), mpi.OpSum, prof)
	c := s.B.Interpolate(prof)
	wts := s.B.IntegrationWeights()
	v := 0.0
	for i := range wts {
		v += wts[i] * c[i]
	}
	return v / 2
}

// MeanScalarProfile returns the mean scalar at the collocation points,
// broadcast from the owner rank to all ranks.
func (t *ScalarSolver) MeanScalarProfile() []float64 {
	s := t.Solver
	vals := make([]float64, s.Cfg.Ny)
	if s.ownsMean {
		s.b0.MulVec(vals, t.meanTh)
	}
	return mpi.Bcast(s.World(), 0, vals)
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

// CheckpointState extends the channel state with the scalar fields: cth
// and hthPrev as extended complex fields, the mean scalar profile and its
// previous-substep term as extended mean profiles.
func (t *ScalarSolver) CheckpointState() *ckpt.State {
	st := t.Solver.CheckpointState()
	st.Extra = [][][]complex128{t.cth, t.hthPrev}
	if t.ownsMean {
		st.ExtraMean = [][]float64{t.meanTh, t.meanHthPrev}
	}
	return st
}
