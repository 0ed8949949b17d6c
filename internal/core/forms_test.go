package core

import (
	"math"
	"math/cmplx"
	"testing"

	"channeldns/internal/banded"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

// TestFormsAgreeWhenResolved: for a smooth low-mode divergence-free field
// at generous resolution, the divergence and convective forms of h_g/h_v
// must agree to interpolation accuracy (they are analytically identical).
func TestFormsAgreeWhenResolved(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 48, Nz: 16, ReTau: 100, Dt: 1e-3, Forcing: 1}
	s := serialSolver(t, cfg)
	s.SetLaminar()
	s.Perturb(0.4, 2, 2, 9)

	ny := cfg.Ny
	hgD, hvD := allocCoef(s.nw, ny), allocCoef(s.nw, ny)
	mxD, mzD := make([]float64, ny), make([]float64, ny)
	s.divergenceTerms(hgD, hvD, mxD, mzD)
	hgC, hvC := allocCoef(s.nw, ny), allocCoef(s.nw, ny)
	mxC, mzC := make([]float64, ny), make([]float64, ny)
	s.convectiveTerms(hgC, hvC, mxC, mzC)
	_, _ = mzD, mzC
	maxHg, maxHv, scale := 0.0, 0.0, 0.0
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			continue
		}
		for i := range hgD[w] {
			if d := cmplx.Abs(hgD[w][i] - hgC[w][i]); d > maxHg {
				maxHg = d
			}
			if d := cmplx.Abs(hvD[w][i] - hvC[w][i]); d > maxHv {
				maxHv = d
			}
			if a := cmplx.Abs(hvD[w][i]); a > scale {
				scale = a
			}
		}
	}
	if maxHg > 1e-5*scale {
		t.Errorf("h_g forms differ by %g (scale %g)", maxHg, scale)
	}
	if maxHv > 1e-4*scale {
		t.Errorf("h_v forms differ by %g (scale %g)", maxHv, scale)
	}
	// Mean forcing: -<v du/dy> vs -d<uv>/dy agree by parts.
	for i := range mxD {
		if math.Abs(mxD[i]-mxC[i]) > 1e-6*(1+math.Abs(mxD[i])) {
			t.Errorf("mean H_x forms differ at %d: %g vs %g", i, mxD[i], mxC[i])
		}
	}
}

// TestSkewFormEnergyConservation: at numerically zero viscosity the
// skew-symmetric form must conserve energy at least as well as the
// divergence form.
func TestSkewFormEnergyConservation(t *testing.T) {
	run := func(form Form) float64 {
		cfg := Config{Nx: 16, Ny: 24, Nz: 16, ReTau: 1e10, Dt: 2e-4,
			Forcing: 0, Nonlinear: form}
		s := serialSolver(t, cfg)
		s.Perturb(0.2, 2, 2, 11)
		e0 := s.TotalEnergy()
		Advance(s, 20)
		return math.Abs(s.TotalEnergy()-e0) / e0
	}
	dDiv := run(FormDivergence)
	dSkew := run(FormSkewSymmetric)
	if dSkew > 2e-3 {
		t.Errorf("skew-symmetric drift %g too large", dSkew)
	}
	if dSkew > 5*dDiv+1e-12 {
		t.Errorf("skew drift %g should not be much worse than divergence %g", dSkew, dDiv)
	}
}

// TestConvectiveFormSerialMatchesParallel: the gradient pipeline must be
// decomposition-independent like the product pipeline.
func TestConvectiveFormSerialMatchesParallel(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
		Nonlinear: FormConvective}
	steps := 3
	ref := map[[2]int][]complex128{}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 77)
		Advance(s, steps)
		for w := 0; w < s.nw; w++ {
			ikx, ikz := s.modeOf(w)
			ref[[2]int{ikx, ikz}] = append([]complex128(nil), s.cv[w]...)
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
		s.Perturb(0.3, 2, 2, 77)
		Advance(s, steps)
		for w := 0; w < s.nw; w++ {
			ikx, ikz := s.modeOf(w)
			want := ref[[2]int{ikx, ikz}]
			for i := range want {
				if cmplx.Abs(s.cv[w][i]-want[i]) > 1e-12 {
					t.Errorf("mode (%d,%d) coef %d differs", ikx, ikz, i)
					return
				}
			}
		}
	})
}

// TestSkewFormSurvivesMarginalResolution: the regression behind the form
// option — at the marginal Ny where the divergence form blows up through
// wall-normal aliasing during transition, the skew-symmetric form must
// keep the energy budget bounded. Long; skipped with -short.
func TestSkewFormSurvivesMarginalResolution(t *testing.T) {
	t.Parallel() // held until the serial tests, the AllocsPerRun ones among them, finish
	if testing.Short() {
		t.Skip("transition run is slow")
	}
	cfg := Config{Nx: 32, Ny: 49, Nz: 32, ReTau: 180, Dt: 4e-4, Forcing: 1,
		Nonlinear: FormSkewSymmetric, Pool: par.NewPool(4)}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.SetLaminar()
		s.Perturb(0.8, 3, 3, 2024)
		e0 := s.TotalEnergy()
		for b := 0; b < 6; b++ {
			AdvanceAdaptive(s, 50, 0.8, 5)
			e := s.TotalEnergy()
			if math.IsNaN(e) || e > 3*e0 {
				t.Errorf("skew form blew up at t=%g: E=%g", s.Time, e)
				return
			}
		}
	})
}

// TestGeneralSolverAblationMatches: the unpivoted compact LU the
// time advance uses and the pivoted general banded solver (Table 1's
// baseline) must agree on the DNS's own operators, i.e. the three implicit
// left-hand sides and the Helmholtz operator of every advanced mode.
func TestGeneralSolverAblationMatches(t *testing.T) {
	s := serialSolver(t, Config{Nx: 8, Ny: 20, Nz: 8, ReTau: 180, Dt: 1e-3, Forcing: 1})
	ny, deg := s.Cfg.Ny, s.B.Degree()
	rhs := make([]complex128, ny)
	for i := range rhs {
		rhs[i] = complex(math.Sin(float64(3*i+1)), math.Cos(float64(2*i)))
	}
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			continue
		}
		k2 := s.G.K2(ikx, ikz)
		coef := [][2]float64{{-k2, -1}} // helm; then lhs[0..2]
		for sub := 0; sub < 3; sub++ {
			c := smr91.Beta[sub] * s.Cfg.Dt * s.nu
			coef = append(coef, [2]float64{1 + c*k2, c})
		}
		for op, a := range coef {
			cm, gm := banded.NewCompact(ny, deg), banded.NewReal(ny, deg, deg)
			s.fillOperator(cm, a[0], a[1])
			s.fillOperator(gm, a[0], a[1])
			if err := cm.Factor(); err != nil {
				t.Fatal(err)
			}
			if err := gm.Factor(); err != nil {
				t.Fatal(err)
			}
			x, y := append([]complex128(nil), rhs...), append([]complex128(nil), rhs...)
			cm.SolveComplex(x)
			gm.SolveComplexTwoReal(y)
			diff, scale := 0.0, 0.0
			for i := range x {
				diff = math.Max(diff, cmplx.Abs(x[i]-y[i]))
				scale = math.Max(scale, cmplx.Abs(y[i]))
			}
			if diff > 1e-9*scale {
				t.Fatalf("mode %d operator %d: compact and pivoted solves differ by %g of %g", w, op, diff, scale)
			}
		}
	}
}
