package core

import (
	"math"
	"math/cmplx"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

func serialSolver(t *testing.T, cfg Config) *Solver {
	t.Helper()
	var s *Solver
	var err error
	mpi.Run(1, func(c *mpi.Comm) { s, err = New(c, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// evalC evaluates a complex coefficient vector at y.
func evalC(s *Solver, c []complex128, y float64) complex128 {
	ny := len(c)
	re := make([]float64, ny)
	im := make([]float64, ny)
	for i := range c {
		re[i] = real(c[i])
		im[i] = imag(c[i])
	}
	return complex(s.B.Eval(re, y), s.B.Eval(im, y))
}

// TestPoiseuilleSteadyState: with unit forcing the mean flow must converge
// to U(y) = ReTau*(1-y^2)/2, which is exactly representable in the spline
// space, and then stay there.
func TestPoiseuilleSteadyState(t *testing.T) {
	cfg := Config{Nx: 8, Ny: 16, Nz: 8, ReTau: 1, Dt: 0.02, Forcing: 1}
	s := serialSolver(t, cfg)
	Advance(s, 600) // t = 12, slowest decay rate nu*(pi/2)^2 => e^-29
	for i, y := range s.CollocationPoints() {
		want := (1 - y*y) / 2
		got := s.MeanProfile()[i]
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("U(%.3f) = %.8f, want %.8f", y, got, want)
		}
	}
	// Exactness: starting at the parabola, one step must not move it.
	s2 := serialSolver(t, cfg)
	s2.SetLaminar()
	before := s2.MeanProfile()
	Advance(s2, 5)
	after := s2.MeanProfile()
	for i := range before {
		if math.Abs(after[i]-before[i]) > 1e-10 {
			t.Errorf("laminar profile drifted at %d: %g -> %g", i, before[i], after[i])
		}
	}
}

// analyticStartup is the exact laminar startup from rest under a unit
// pressure gradient, du/dt = 1 + nu*d2u/dy2 with u(+-1) = 0, u(y, 0) = 0:
//
//	u(y,t) = (1-y^2)/(2 nu) - sum_k a_k cos(l_k y) exp(-nu l_k^2 t),
//	l_k = (2k+1) pi/2,  a_k = 2 (-1)^k / (nu l_k^3).
func analyticStartup(y, t, nu float64) float64 {
	u := (1 - y*y) / (2 * nu)
	for k := 0; k < 200; k++ {
		lk := (2*float64(k) + 1) * math.Pi / 2
		ak := 2 * math.Pow(-1, float64(k)) / (nu * lk * lk * lk)
		u -= ak * math.Cos(lk*y) * math.Exp(-nu*lk*lk*t)
	}
	return u
}

// TestPoiseuilleStartupOrder is the temporal-order rung of the IMEX RK3:
// the mean flow's startup from rest, against the exact series, to t = 0.4
// at dt = 0.04, 0.02, 0.01. Halving dt must divide the worst error over
// the collocation points by 4 (order 2; measured 2.00 and 2.00, errors
// 1.74e-5, 4.35e-6, 1.09e-6): a first-order mean-flow advance, such as
// backward Euler on each substep's viscous term, shows here as order 1.
func TestPoiseuilleStartupOrder(t *testing.T) {
	const tEnd = 0.4
	dts := []float64{0.04, 0.02, 0.01}
	bound := []float64{2e-5, 5e-6, 1.25e-6}
	errs := make([]float64, len(dts))
	for i, dt := range dts {
		s := serialSolver(t, Config{Nx: 8, Ny: 33, Nz: 8, ReTau: 10, Dt: dt, Forcing: 1})
		Advance(s, int(math.Round(tEnd/dt)))
		u := s.MeanProfile()
		for j, y := range s.CollocationPoints() {
			errs[i] = math.Max(errs[i], math.Abs(u[j]-analyticStartup(y, s.Time, s.Nu())))
		}
		if errs[i] > bound[i] {
			t.Errorf("dt = %g: max |U - exact| = %.3e, want < %.3e", dt, errs[i], bound[i])
		}
	}
	for i := 1; i < len(dts); i++ {
		if p := math.Log2(errs[i-1] / errs[i]); math.Abs(p-2) > 0.1 {
			t.Errorf("dt %g -> %g: observed order %.3f (errors %.3e, %.3e), want 2 +- 0.1",
				dts[i-1], dts[i], p, errs[i-1], errs[i])
		}
	}
}

// TestStokesDecayOmega: with the nonlinear terms frozen, an omega_y
// eigenmode sin(n*pi*(y+1)/2) at wavenumber k decays at exactly
// nu*(k^2 + (n*pi/2)^2).
func TestStokesDecayOmega(t *testing.T) {
	cfg := Config{Nx: 8, Ny: 32, Nz: 8, ReTau: 1, Dt: 5e-4, Forcing: 0, DisableNonlinear: true}
	s := serialSolver(t, cfg)
	ikx, ikz := 1, 1
	n := 1.0
	s.SetModeOmega(ikx, ikz, func(y float64) complex128 {
		return complex(math.Sin(n*math.Pi*(y+1)/2), 0)
	})
	y0 := 0.0
	a0 := evalC(s, s.OmegaCoef(ikx, ikz), y0)
	steps := 400
	Advance(s, steps)
	a1 := evalC(s, s.OmegaCoef(ikx, ikz), y0)
	T := float64(steps) * cfg.Dt
	k2 := s.G.K2(ikx, ikz)
	lambda := s.Nu() * (k2 + (n*math.Pi/2)*(n*math.Pi/2))
	want := math.Exp(-lambda * T)
	got := cmplx.Abs(a1) / cmplx.Abs(a0)
	if math.Abs(got-want) > 2e-4*want {
		t.Errorf("omega decay ratio %.8f, want %.8f (lambda=%g)", got, want, lambda)
	}
}

// TestVModeSelfConvergence: the full phi/v advance (with influence-matrix
// boundary coupling) must converge with order >= 2 in dt.
func TestVModeSelfConvergence(t *testing.T) {
	run := func(dt float64, steps int) complex128 {
		cfg := Config{Nx: 8, Ny: 24, Nz: 8, ReTau: 2, Dt: dt, Forcing: 0, DisableNonlinear: true}
		s := serialSolver(t, cfg)
		s.SetModeV(1, 1, func(y float64) complex128 {
			q := 1 - y*y
			return complex(q*q, 0.3*q*q*y)
		})
		Advance(s, steps)
		return evalC(s, s.VCoef(1, 1), 0.25)
	}
	T := 0.2
	ref := run(T/512, 512)
	e1 := cmplx.Abs(run(T/16, 16) - ref)
	e2 := cmplx.Abs(run(T/32, 32) - ref)
	order := math.Log2(e1 / e2)
	if order < 1.8 {
		t.Errorf("temporal order %.2f (e1=%g e2=%g), want >= 1.8", order, e1, e2)
	}
}

// TestNonlinearYResolutionConvergence: through nonlinear evolution the
// Ny = 40 run must agree with a Ny = 64 run of the same initial state. The
// y-resolution error at Ny = 40 is ≈1e-7 in v-hat and ≈2e-11 in the
// relative energy, so the tolerances sit well above it and far below what
// a y-derivative taken from collocation values as if they were spline
// coefficients produces (≈1.5e-5 in v-hat). A consistent error, such as a
// wrong sign on a derivative term, converges too and is left to
// TestFormsAgreeWhenResolved.
func TestNonlinearYResolutionConvergence(t *testing.T) {
	run := func(ny int) (complex128, float64) {
		s := serialSolver(t, Config{Nx: 16, Ny: ny, Nz: 16, ReTau: 100, Dt: 5e-4, Forcing: 1})
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 9)
		Advance(s, 10)
		return evalC(s, s.VCoef(1, 1), 0.3), s.TotalEnergy()
	}
	v, e := run(40)
	vf, ef := run(64)
	if d := cmplx.Abs(v - vf); d > 2e-6*(1+cmplx.Abs(vf)) {
		t.Errorf("v-hat(1,1)(0.3): Ny=40 %v vs Ny=64 %v (|diff| %g)", v, vf, d)
	}
	if d := math.Abs(e-ef) / ef; d > 1e-9 {
		t.Errorf("energy: Ny=40 %.15g vs Ny=64 %.15g (relative diff %g)", e, ef, d)
	}
}

// TestDivergenceFreeRecovery: for arbitrary (v, omega) state the recovered
// velocities satisfy continuity and the vorticity definition identically.
func TestDivergenceFreeRecovery(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	s := serialSolver(t, cfg)
	s.Perturb(0.7, 3, 3, 42)
	ny := cfg.Ny
	for _, mode := range [][2]int{{1, 0}, {0, 1}, {2, 3}, {3, 14}, {1, 15}} {
		ikx, ikz := mode[0], mode[1]
		u, v, w := s.ModeVelocityValues(ikx, ikz)
		if u == nil {
			t.Fatalf("mode (%d,%d) not local in serial run", ikx, ikz)
		}
		if s.G.IsNyquistZ(ikz) {
			continue
		}
		kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
		vy := make([]complex128, ny)
		om := make([]complex128, ny)
		s.colloc.Mul(1, vy, s.VCoef(ikx, ikz))
		s.colloc.Mul(0, om, s.OmegaCoef(ikx, ikz))
		for i := 0; i < ny; i++ {
			div := complex(0, kx)*u[i] + vy[i] + complex(0, kz)*w[i]
			if cmplx.Abs(div) > 1e-11 {
				t.Errorf("mode (%d,%d) point %d: divergence %g", ikx, ikz, i, cmplx.Abs(div))
			}
			curl := complex(0, kz)*u[i] - complex(0, kx)*w[i]
			if cmplx.Abs(curl-om[i]) > 1e-11 {
				t.Errorf("mode (%d,%d) point %d: vorticity mismatch %g", ikx, ikz, i, cmplx.Abs(curl-om[i]))
			}
			_ = v
		}
	}
}

// TestBoundaryConditionsAfterSteps: after nonlinear time stepping, v, v'
// and omega must still vanish at the walls to solver precision.
func TestBoundaryConditionsAfterSteps(t *testing.T) {
	cfg := Config{Nx: 8, Ny: 20, Nz: 8, ReTau: 180, Dt: 1e-3, Forcing: 1}
	s := serialSolver(t, cfg)
	s.SetLaminar()
	s.Perturb(0.5, 2, 2, 7)
	Advance(s, 10)
	if r := s.BCResidual(); r > 1e-9 {
		t.Errorf("BC residual %g after 10 steps", r)
	}
	if e := s.TotalEnergy(); math.IsNaN(e) || math.IsInf(e, 0) || e <= 0 {
		t.Errorf("bad total energy %g", e)
	}
}

// TestEnergyDecaysWithoutForcing: with no forcing and no mean flow, viscosity
// must drain the perturbation energy monotonically.
func TestEnergyDecaysWithoutForcing(t *testing.T) {
	cfg := Config{Nx: 8, Ny: 20, Nz: 8, ReTau: 10, Dt: 2e-3, Forcing: 0}
	s := serialSolver(t, cfg)
	s.Perturb(0.3, 2, 2, 3)
	prev := s.TotalEnergy()
	for i := 0; i < 5; i++ {
		Advance(s, 10)
		e := s.TotalEnergy()
		if e >= prev {
			t.Errorf("energy did not decay: %g -> %g at block %d", prev, e, i)
		}
		prev = e
	}
}

// TestNonlinearEnergyConservation: at (numerically) zero viscosity and no
// forcing, the divergence-form convective terms conserve energy; drift over
// a short run must be small.
func TestNonlinearEnergyConservation(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 24, Nz: 16, ReTau: 1e10, Dt: 2e-4, Forcing: 0}
	s := serialSolver(t, cfg)
	s.Perturb(0.2, 2, 2, 11)
	e0 := s.TotalEnergy()
	Advance(s, 20)
	e1 := s.TotalEnergy()
	drift := math.Abs(e1-e0) / e0
	if drift > 2e-3 {
		t.Errorf("inviscid energy drift %.2e over 20 steps", drift)
	}
}

// TestHermitianSymmetryPreserved: conjugate pairs on the kx = 0 plane stay
// conjugate through nonlinear time stepping (reality of the physical field).
func TestHermitianSymmetryPreserved(t *testing.T) {
	cfg := Config{Nx: 8, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	s := serialSolver(t, cfg)
	s.SetLaminar()
	s.Perturb(0.4, 2, 4, 5)
	Advance(s, 8)
	for kz := 1; kz < cfg.Nz/2; kz++ {
		kzc := s.G.ConjIndexZ(kz)
		a := s.VCoef(0, kz)
		b := s.VCoef(0, kzc)
		for i := range a {
			if cmplx.Abs(a[i]-complex(real(b[i]), -imag(b[i]))) > 1e-10 {
				t.Fatalf("kz=%d coef %d: Hermitian symmetry broken: %v vs %v", kz, i, a[i], b[i])
			}
		}
	}
}

// TestSerialMatchesParallel: the same initial condition advanced on 1 rank
// and on a 2x2 grid (with threading) must produce identical states.
func TestSerialMatchesParallel(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	steps := 4

	type modeState struct {
		ikx, ikz int
		cv, cw   []complex128
	}
	collect := func(s *Solver) []modeState {
		var out []modeState
		for w := 0; w < s.nw; w++ {
			ikx, ikz := s.modeOf(w)
			out = append(out, modeState{ikx, ikz,
				append([]complex128(nil), s.cv[w]...),
				append([]complex128(nil), s.cw[w]...)})
		}
		return out
	}

	ref := map[[2]int]modeState{}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 99)
		Advance(s, steps)
		for _, m := range collect(s) {
			ref[[2]int{m.ikx, m.ikz}] = m
		}
	})

	pcfg := cfg
	pcfg.PA, pcfg.PB = 2, 2
	pcfg.Pool = par.NewPool(2)
	mpi.Run(4, func(c *mpi.Comm) {
		s, err := New(c, pcfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 99)
		Advance(s, steps)
		for _, m := range collect(s) {
			want, ok := ref[[2]int{m.ikx, m.ikz}]
			if !ok {
				t.Errorf("mode (%d,%d) missing from serial reference", m.ikx, m.ikz)
				continue
			}
			for i := range m.cv {
				if cmplx.Abs(m.cv[i]-want.cv[i]) > 1e-12 {
					t.Errorf("mode (%d,%d) cv[%d]: parallel %v serial %v", m.ikx, m.ikz, i, m.cv[i], want.cv[i])
					return
				}
				if cmplx.Abs(m.cw[i]-want.cw[i]) > 1e-12 {
					t.Errorf("mode (%d,%d) cw[%d]: parallel %v serial %v", m.ikx, m.ikz, i, m.cw[i], want.cw[i])
					return
				}
			}
		}
	})
}

// TestMeanMomentumBalance: in statistically steady conditions the friction
// velocity tends toward 1; over a short laminar startup the bulk velocity
// must grow under forcing.
func TestMeanMomentumBalance(t *testing.T) {
	cfg := Config{Nx: 8, Ny: 16, Nz: 8, ReTau: 180, Dt: 1e-3, Forcing: 1}
	s := serialSolver(t, cfg)
	ub0 := s.BulkVelocity()
	Advance(s, 50)
	ub1 := s.BulkVelocity()
	if ub1 <= ub0 {
		t.Errorf("bulk velocity did not grow under forcing: %g -> %g", ub0, ub1)
	}
	// Growth rate at startup: dUb/dt = F = 1 (no wall stress yet at t=0+).
	rate := (ub1 - ub0) / (50 * cfg.Dt)
	if rate < 0.8 || rate > 1.05 {
		t.Errorf("startup acceleration %.3f, want about 1", rate)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nx: 8, Ny: 16, Nz: 8, ReTau: 0, Dt: 0.1},
		{Nx: 8, Ny: 16, Nz: 8, ReTau: 100, Dt: 0},
		{Nx: 8, Ny: 4, Nz: 8, ReTau: 100, Dt: 0.1}, // Ny too small for degree 7
		{Workload: "nonesuch", Nx: 8, Ny: 16, Nz: 8, ReTau: 100, Dt: 0.1},
		{Workload: WorkloadIsotropic, Nx: 8, Ny: 8, Nz: 8, ReTau: 0, Dt: 0.1},
		{Workload: WorkloadIsotropic, Nx: 8, Ny: 8, Nz: 8, ReTau: 100, Dt: 0},
		{Workload: WorkloadIsotropic, Nx: 8, Ny: 8, Nz: 8, ReTau: 100, Dt: 0.1, Nonlinear: FormSkewSymmetric},
		{Workload: WorkloadScalar, Nx: 8, Ny: 16, Nz: 8, ReTau: 100, Dt: 0.1, Prandtl: -1},
		{Nx: 7, Ny: 16, Nz: 8, ReTau: 100, Dt: 0.1}, // odd Nx
		{Nx: 8, Ny: 16, Nz: 7, ReTau: 100, Dt: 0.1}, // odd Nz
		{Nx: 2, Ny: 16, Nz: 8, ReTau: 100, Dt: 0.1}, // tiny Nx
		{Nx: 8, Ny: 2, Nz: 8, ReTau: 100, Dt: 0.1},  // tiny Ny
		{Nx: 8, Ny: 16, Nz: 8, Lx: -1, ReTau: 100, Dt: 0.1},
		{Nx: 8, Ny: 16, Nz: 8, Lz: -1, ReTau: 100, Dt: 0.1},
		{Workload: WorkloadIsotropic, Nx: 8, Ny: 8, Nz: 8, Ly: -1, ReTau: 100, Dt: 0.1},
		{Nx: 8, Ny: 16, Nz: 8, ReTau: math.NaN(), Dt: 0.1},
		{Nx: 8, Ny: 16, Nz: 8, ReTau: 100, Dt: math.NaN()},
		{Nx: 8, Ny: 16, Nz: 8, ReTau: math.Inf(1), Dt: 0.1},
		{Nx: 8, Ny: 16, Nz: 8, ReTau: 100, Dt: 0.1, Forcing: math.NaN()},
		{Workload: WorkloadScalar, Nx: 8, Ny: 16, Nz: 8, ReTau: 100, Dt: 0.1, Prandtl: math.NaN()},
		{Nx: 8, Ny: 16, Nz: 8, Lx: math.Inf(1), ReTau: 100, Dt: 0.1},
		{Nx: 8, Ny: 16, Nz: 8, Lz: math.Inf(1), ReTau: 100, Dt: 0.1},
		{Workload: WorkloadIsotropic, Nx: 8, Ny: 8, Nz: 8, Ly: math.Inf(1), ReTau: 100, Dt: 0.1},
		{Nx: 8, Ny: 16, Nz: 8, ReTau: 100, Dt: 0.1, Degree: -1},
	}
	for i, cfg := range bad {
		mpi.Run(1, func(c *mpi.Comm) {
			if _, err := NewWorkload(c, cfg); err == nil {
				t.Errorf("config %d: expected error", i)
			}
		})
	}
}
