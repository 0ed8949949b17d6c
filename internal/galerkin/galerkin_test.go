package galerkin

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

func serialG(t *testing.T, cfg core.Config) *Solver { return serialQ(t, cfg, 0) }

// serialQ is serialG with perInterval quadrature points per knot interval.
func serialQ(t *testing.T, cfg core.Config, perInterval int) *Solver {
	t.Helper()
	var s *Solver
	mpi.Run(1, func(c *mpi.Comm) {
		var err error
		s, err = newSolver(c, cfg, perInterval)
		if err != nil {
			t.Fatal(err)
		}
	})
	return s
}

// TestWeakMatricesAgainstExactIntegrals: the mass matrix must reproduce
// int B_i = row sums against the known closed form, and K must annihilate
// constants.
func TestWeakMatricesAgainstExactIntegrals(t *testing.T) {
	cfg := core.Config{Nx: 8, Ny: 20, Nz: 8, ReTau: 1, Dt: 1e-2, Forcing: 1}
	s := serialG(t, cfg)
	n := cfg.Ny
	wInt := s.B.IntegrationWeights()
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	row := make([]float64, n)
	s.wm.m.MulVec(row, ones) // row sums of M = int B_i * (sum_j B_j) = int B_i
	for i := 0; i < n; i++ {
		if math.Abs(row[i]-wInt[i]) > 1e-12 {
			t.Fatalf("mass row sum %d: %g want %g", i, row[i], wInt[i])
		}
	}
	s.wm.k.MulVec(row, ones) // K * constant = 0
	for i := 0; i < n; i++ {
		if math.Abs(row[i]) > 1e-10 {
			t.Fatalf("stiffness does not annihilate constants at %d: %g", i, row[i])
		}
	}
}

// TestGalerkinPoiseuille: with unit forcing the mean flow must converge to
// the exact parabola (which lies in the trial space).
func TestGalerkinPoiseuille(t *testing.T) {
	cfg := core.Config{Nx: 8, Ny: 20, Nz: 8, ReTau: 1, Dt: 0.02, Forcing: 1}
	s := serialG(t, cfg)
	s.Advance(600)
	ys := []float64{-0.9, -0.5, 0, 0.4, 0.8}
	got := s.MeanProfileAt(ys)
	for i, y := range ys {
		want := (1 - y*y) / 2
		if math.Abs(got[i]-want) > 1e-6 {
			t.Errorf("U(%g) = %g, want %g", y, got[i], want)
		}
	}
	if ut := s.FrictionVelocity(); math.Abs(ut-1) > 1e-6 {
		t.Errorf("u_tau = %g, want 1", ut)
	}
}

// TestGalerkinStokesDecay: an omega_y eigenmode decays at the exact Stokes
// rate, as in the collocation solver.
func TestGalerkinStokesDecay(t *testing.T) {
	cfg := core.Config{Nx: 8, Ny: 32, Nz: 8, ReTau: 1, Dt: 5e-4, Forcing: 0, DisableNonlinear: true}
	s := serialG(t, cfg)
	s.SetModeOmega(1, 1, func(y float64) complex128 {
		return complex(math.Sin(math.Pi*(y+1)/2), 0)
	})
	a0 := s.EvalOmega(1, 1, 0)
	steps := 400
	s.Advance(steps)
	a1 := s.EvalOmega(1, 1, 0)
	T := float64(steps) * cfg.Dt
	lambda := s.Nu() * (s.G.K2(1, 1) + math.Pi*math.Pi/4)
	want := math.Exp(-lambda * T)
	got := cmplx.Abs(a1) / cmplx.Abs(a0)
	if math.Abs(got-want) > 2e-4*want {
		t.Errorf("decay ratio %.8f want %.8f", got, want)
	}
}

// TestGalerkinWallConditionsBuiltIn: v, v' and omega are exactly zero at
// the walls by construction of the reduced spaces.
func TestGalerkinWallConditionsBuiltIn(t *testing.T) {
	cfg := core.Config{Nx: 8, Ny: 20, Nz: 8, ReTau: 180, Dt: 5e-4, Forcing: 1}
	s := serialG(t, cfg)
	s.SetLaminar()
	s.Perturb(0.3, 2, 2, 7)
	s.Advance(5)
	lo, hi := s.B.Domain()
	for _, mode := range [][2]int{{1, 1}, {2, 3}} {
		full := s.VCoefFull(mode[0], mode[1])
		re := make([]float64, len(full))
		for i, c := range full {
			re[i] = real(c)
		}
		for _, y := range []float64{lo, hi} {
			if v := s.B.Eval(re, y); math.Abs(v) > 1e-14 {
				t.Errorf("v(%g) = %g", y, v)
			}
			if d := s.B.EvalDeriv(re, y, 1); math.Abs(d) > 1e-12 {
				t.Errorf("v'(%g) = %g", y, d)
			}
		}
	}
}

// TestGalerkinEnergyConservation: the Galerkin projection of the
// divergence-form convective term conserves energy without the collocation
// scheme's wall-normal aliasing; at zero viscosity the drift over a short
// run must be at the time-discretization level and no worse than the
// collocation solver's.
func TestGalerkinEnergyConservation(t *testing.T) {
	cfg := core.Config{Nx: 16, Ny: 24, Nz: 16, ReTau: 1e10, Dt: 2e-4, Forcing: 0}
	s := serialQ(t, cfg, 11) // exact triple-product quadrature
	s.Perturb(0.2, 2, 2, 11)
	e0 := s.TotalEnergy()
	s.Advance(20)
	drift := math.Abs(s.TotalEnergy()-e0) / e0
	if drift > 1e-3 {
		t.Errorf("Galerkin inviscid drift %g", drift)
	}
}

// TestGalerkinMatchesCollocationWhenResolved: at generous resolution the
// two discretizations must track each other through nonlinear evolution.
func TestGalerkinMatchesCollocationWhenResolved(t *testing.T) {
	steps := 10
	cfg := core.Config{Nx: 16, Ny: 40, Nz: 16, ReTau: 100, Dt: 5e-4, Forcing: 1}
	g := serialG(t, cfg)
	g.SetLaminar()
	g.Perturb(0.3, 2, 2, 9)
	g.Advance(steps)

	var cv complex128
	var eC float64
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := core.New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 9)
		core.Advance(s, steps)
		// Evaluate v-hat(1,1) at y = 0.3.
		coef := s.VCoef(1, 1)
		re := make([]float64, len(coef))
		im := make([]float64, len(coef))
		for i, v := range coef {
			re[i] = real(v)
			im[i] = imag(v)
		}
		cv = complex(s.Basis().Eval(re, 0.3), s.Basis().Eval(im, 0.3))
		eC = s.TotalEnergy()
	})
	gv := g.EvalV(1, 1, 0.3)
	if d := cmplx.Abs(gv - cv); d > 2e-4*(1+cmplx.Abs(cv)) {
		t.Errorf("v-hat(1,1)(0.3): galerkin %v vs collocation %v (|diff| %g)", gv, cv, d)
	}
	eG := g.TotalEnergy()
	if math.Abs(eG-eC)/eC > 1e-4 {
		t.Errorf("energies diverged: galerkin %g collocation %g", eG, eC)
	}
}

// TestNewRefusesUnrunnableConfigs: a configuration the solver cannot run
// is an error from New on every rank, never a panic inside a constructor —
// core.Config.Validate's shape checks, galerkin's own basis size, and a
// core.Config field the solver does not implement.
func TestNewRefusesUnrunnableConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"odd Nx", core.Config{Nx: 7, Ny: 20, Nz: 8, ReTau: 180, Dt: 1e-3}},
		{"PA > Nx/2", core.Config{Nx: 8, Ny: 20, Nz: 8, ReTau: 180, Dt: 1e-3, PA: 5}},
		{"Ny < Degree+6", core.Config{Nx: 8, Ny: 12, Nz: 8, ReTau: 180, Dt: 1e-3}},
		{"convective form", core.Config{Nx: 8, Ny: 20, Nz: 8, ReTau: 180, Dt: 1e-3, Nonlinear: core.FormConvective}},
	} {
		ranks := max(1, tc.cfg.PA) * max(1, tc.cfg.PB)
		errs := make([]error, ranks)
		panics := make([]any, ranks)
		mpi.Run(ranks, func(c *mpi.Comm) {
			defer func() { panics[c.Rank()] = recover() }()
			_, errs[c.Rank()] = New(c, tc.cfg)
		})
		for r := range ranks {
			if panics[r] != nil {
				t.Errorf("%s: rank %d panicked: %v", tc.name, r, panics[r])
			} else if errs[r] == nil {
				t.Errorf("%s: rank %d built a solver", tc.name, r)
			}
		}
	}
}

// TestGalerkinSerialMatchesParallel: decomposition independence.
func TestGalerkinSerialMatchesParallel(t *testing.T) {
	cfg := core.Config{Nx: 16, Ny: 20, Nz: 16, ReTau: 180, Dt: 5e-4, Forcing: 1}
	steps := 3
	ref := map[[2]int][]complex128{}
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := New(c, cfg)
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 55)
		s.Advance(steps)
		for w := 0; w < s.nw; w++ {
			ikx, ikz := s.modeOf(w)
			ref[[2]int{ikx, ikz}] = append([]complex128(nil), s.cv[w]...)
		}
	})
	pcfg := cfg
	pcfg.PA, pcfg.PB = 2, 2
	pcfg.Pool = par.NewPool(2)
	mpi.Run(4, func(c *mpi.Comm) {
		s, _ := New(c, pcfg)
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 55)
		s.Advance(steps)
		for w := 0; w < s.nw; w++ {
			ikx, ikz := s.modeOf(w)
			want := ref[[2]int{ikx, ikz}]
			for i := range want {
				if cmplx.Abs(s.cv[w][i]-want[i]) > 1e-12 {
					t.Errorf("mode (%d,%d) differs at %d", ikx, ikz, i)
					return
				}
			}
		}
	})
}

// TestGalerkinSurvivesMarginalResolution: the headline property — at a
// marginal wall-normal resolution with a violent finite-amplitude
// disturbance (the regime where the collocation divergence form aliases in
// y and leaves the energy budget), the Galerkin scheme stays bounded.
// Long; skipped with -short.
func TestGalerkinSurvivesMarginalResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("transition run is slow")
	}
	cfg := core.Config{Nx: 24, Ny: 41, Nz: 24, ReTau: 180, Dt: 3e-4, Forcing: 1,
		Pool: par.NewPool(4)}
	s := serialG(t, cfg)
	s.SetLaminar()
	s.Perturb(1.5, 3, 3, 2024)
	e0 := s.TotalEnergy()
	for b := 0; b < 4; b++ {
		s.Advance(40)
		e := s.TotalEnergy()
		if math.IsNaN(e) || e > 3*e0 {
			t.Fatalf("Galerkin blew up at t=%g: E=%g", s.Time, e)
		}
	}
}

// TestTrajectoryPinned pins the energy after three steps, serial and on 2x2
// ranks, to values recorded before the product pipeline moved onto
// parfft.Excursion; the other tests here compare runs of one build with
// each other. Exact on amd64, where Go never fuses a multiply with an add;
// architectures that contract a*b+c into one rounding get 1e-12 relative on
// the energy only, as does the 2x2 energy everywhere (mpi.Allreduce sums in
// arrival order).
func TestTrajectoryPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pa, pb int
		energy float64
		state  uint64 // FNV-1a over the bits of rank 0's state, amd64 only
	}{
		{"serial", 1, 1, 0x1.0e1a4b8ed8207p+12, 0xb8c4566bce28036b},
		{"2x2", 2, 2, 0x1.0e1a4b8ed828ap+12, 0xa3574702158dc0b1},
	} {
		cfg := core.Config{Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
			PA: tc.pa, PB: tc.pb}
		if tc.pa*tc.pb > 1 {
			cfg.Pool = par.NewPool(2)
		}
		var got float64
		var state uint64
		mpi.Run(tc.pa*tc.pb, func(c *mpi.Comm) {
			s, err := New(c, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			s.SetLaminar()
			s.Perturb(0.3, 2, 2, 7)
			s.Advance(3)
			if e := s.TotalEnergy(); c.Rank() == 0 {
				got = e
				h := fnv.New64a()
				for _, field := range [][][]complex128{s.cv, s.cw, s.fhgPrev, s.fhvPrev} {
					for _, col := range field {
						for _, v := range col {
							var b [16]byte
							binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
							binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
							h.Write(b[:])
						}
					}
				}
				state = h.Sum64()
			}
		})
		ok := math.Abs(got-tc.energy) <= 1e-12*math.Abs(tc.energy)
		if runtime.GOARCH == "amd64" {
			ok = ok && state == tc.state && (tc.pa*tc.pb > 1 || got == tc.energy)
		}
		if !ok {
			t.Errorf("%s: energy %x state %#x, pinned %x %#x", tc.name, got, state, tc.energy, tc.state)
		}
	}
}

// BenchmarkStep times one Galerkin-in-y step, which carries quadrature
// points through the transposes and projects the nonlinear terms. The
// collocation step it is compared with in EXPERIMENTS.md comes from
// cmd/bench -table 9 at the same 16x20x16.
func BenchmarkStep(b *testing.B) {
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, core.Config{Nx: 16, Ny: 20, Nz: 16, ReTau: 180, Dt: 5e-4, Forcing: 1})
		if err != nil {
			b.Fatal(err)
		}
		s.SetLaminar()
		s.Perturb(0.2, 2, 2, 1)
		s.StepOnce()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepOnce()
		}
	})
}
