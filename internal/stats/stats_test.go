package stats

import (
	"math"
	"strings"
	"testing"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

func TestSnapshotSingleMode(t *testing.T) {
	// A single (kx>0) mode of v with amplitude shape f(y): <vv>(y) must be
	// 2*|f(y)|^2 and everything u-related zero when omega and dv/dy... here
	// u,w are induced by v, so check <vv> exactly and symmetry of the rest.
	cfg := core.Config{Nx: 8, Ny: 16, Nz: 8, ReTau: 180, Dt: 1e-3, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := core.New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		shape := func(y float64) complex128 {
			q := 1 - y*y
			return complex(0.3*q*q, 0)
		}
		s.SetModeV(1, 2, shape)
		p := Snapshot(s)
		for i, y := range p.Y {
			want := 2 * absSq(shape(y))
			if math.Abs(p.VV[i]-want) > 1e-10 {
				t.Errorf("<vv>(%g) = %g, want %g", y, p.VV[i], want)
			}
			if p.UU[i] < 0 || p.WW[i] < 0 {
				t.Errorf("negative variance at %d", i)
			}
		}
	})
}

func TestSnapshotMatchesAcrossRanks(t *testing.T) {
	cfg := core.Config{Nx: 16, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	var ref Profiles
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := core.New(c, cfg)
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 17)
		core.Advance(s, 3)
		ref = Snapshot(s)
	})
	pcfg := cfg
	pcfg.PA, pcfg.PB = 2, 2
	mpi.Run(4, func(c *mpi.Comm) {
		s, _ := core.New(c, pcfg)
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 17)
		core.Advance(s, 3)
		p := Snapshot(s)
		for i := range ref.Y {
			if math.Abs(p.UU[i]-ref.UU[i]) > 1e-10 ||
				math.Abs(p.UV[i]-ref.UV[i]) > 1e-10 ||
				math.Abs(p.U[i]-ref.U[i]) > 1e-10 {
				t.Fatalf("distributed statistics differ at %d", i)
			}
		}
	})
}

func TestAccumulator(t *testing.T) {
	a := &Accumulator{}
	p1 := Profiles{Y: []float64{0}, U: []float64{2}, UU: []float64{4}, VV: []float64{0}, WW: []float64{0}, UV: []float64{1}}
	p2 := Profiles{Y: []float64{0}, U: []float64{4}, UU: []float64{8}, VV: []float64{2}, WW: []float64{2}, UV: []float64{3}}
	a.Add(p1)
	a.Add(p2)
	if a.Count() != 2 {
		t.Fatalf("count %d", a.Count())
	}
	m := a.Mean()
	if m.U[0] != 3 || m.UU[0] != 6 || m.UV[0] != 2 {
		t.Errorf("mean wrong: %+v", m)
	}
}

func TestWallUnitsLaminar(t *testing.T) {
	// For the laminar profile U = ReTau*(1-y^2)/2 with nu = 1/ReTau the
	// wall slope is dU/dy = ReTau^2... in wall units u_tau = 1 (by the
	// normalization), so U+ = U and y+ = (1+y)*ReTau.
	cfg := core.Config{Nx: 8, Ny: 32, Nz: 8, ReTau: 50, Dt: 1e-3, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := core.New(c, cfg)
		s.SetLaminar()
		p := Snapshot(s)
		yp, up, uTau := p.WallUnits(s.Nu())
		if math.Abs(uTau-1) > 0.05 {
			t.Errorf("u_tau = %g, want about 1 (finite-difference wall slope)", uTau)
		}
		if len(yp) == 0 {
			t.Fatal("no wall-unit points")
		}
		// Near the wall U+ ~ y+ (viscous sublayer).
		for i := range yp {
			if yp[i] < 3 {
				if math.Abs(up[i]-yp[i]) > 0.15*yp[i] {
					t.Errorf("sublayer: U+(%g) = %g, want about y+", yp[i], up[i])
				}
			}
		}
	})
}

func TestLogLawFitRecoversSynthetic(t *testing.T) {
	kappa, b := 0.40, 5.0
	var yp, up []float64
	for y := 30.0; y < 300; y *= 1.1 {
		yp = append(yp, y)
		up = append(up, math.Log(y)/kappa+b)
	}
	k, bb, ok := LogLawFit(yp, up, 30, 300)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(k-kappa) > 1e-10 || math.Abs(bb-b) > 1e-9 {
		t.Errorf("fit kappa=%g B=%g, want %g %g", k, bb, kappa, b)
	}
}

func TestReichardtLimits(t *testing.T) {
	// Sublayer: U+ ~ y+; log region: slope ~ 1/0.41.
	if v := ReichardtProfile(0.5); math.Abs(v-0.5) > 0.05 {
		t.Errorf("Reichardt(0.5) = %g, want about 0.5", v)
	}
	s := (ReichardtProfile(300) - ReichardtProfile(100)) / (math.Log(300) - math.Log(100))
	if math.Abs(s-1/0.41) > 0.05 {
		t.Errorf("Reichardt log slope %g, want %g", s, 1/0.41)
	}
}

func TestWriteFormat(t *testing.T) {
	p := Profiles{Y: []float64{-1, 0}, U: []float64{0, 1}, UU: []float64{0, 2},
		VV: []float64{0, 3}, WW: []float64{0, 4}, UV: []float64{0, -5}}
	var sb strings.Builder
	if err := p.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "-<uv>") || !strings.Contains(out, "5.000000") {
		t.Errorf("unexpected output:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Errorf("expected header + 2 rows")
	}
}

// TestStatsAllocsIndependentOfGrid: the statistics read the state through
// one walk over the local modes into lines they own, so what they allocate
// does not grow with the number of modes.
func TestStatsAllocsIndependentOfGrid(t *testing.T) {
	var allocs [2][3]float64
	for i, n := range []int{16, 48} {
		var s *core.Solver
		var err error
		mpi.Run(1, func(c *mpi.Comm) {
			s, err = core.New(c, core.Config{Nx: n, Ny: n + 1, Nz: n, ReTau: 180, Dt: 1e-3, Forcing: 1})
		})
		if err != nil {
			t.Fatal(err)
		}
		s.InitDefault(0.2, 13)
		yIdx := []int{0, n / 4, n / 2}
		for j, f := range []func(){
			func() { Snapshot(s) },
			func() { TKEBudget(s) },
			func() { SpectraX(s, yIdx) },
		} {
			f() // the first call factors the interpolation matrix
			allocs[i][j] = testing.AllocsPerRun(2, f)
		}
	}
	for j, name := range []string{"Snapshot", "TKEBudget", "SpectraX"} {
		if allocs[0][j] != allocs[1][j] {
			t.Errorf("%s allocates %v objects at 16x17x16 but %v at 48x49x48", name, allocs[0][j], allocs[1][j])
		}
		t.Logf("%s: %v allocs at 16x17x16 and %v at 48x49x48", name, allocs[0][j], allocs[1][j])
	}
}
