package core

import (
	"math"
	"math/cmplx"
	"testing"

	"channeldns/internal/ckpt"
	"channeldns/internal/mpi"
)

// TestPhysicalPlaneSingleMode: a single known mode must invert to the
// expected cosine pattern on the physical grid.
func TestPhysicalPlaneSingleMode(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
		Lx: 2 * math.Pi, Lz: 2 * math.Pi}
	s := serialSolver(t, cfg)
	// v-hat(kx=2, kz=3) = shape(y): physical v = 2*Re[shape * e^{i(2x+3z)}].
	amp := 0.4
	s.SetModeV(2, 3, func(y float64) complex128 {
		q := 1 - y*y
		return complex(amp*q*q, 0)
	})
	yi := 8
	yv := s.CollocationPoints()[yi]
	q := 1 - yv*yv
	want := func(x, z float64) float64 { return 2 * amp * q * q * math.Cos(2*x+3*z) }
	plane := s.PhysicalPlane(CompV, yi)
	mx, mz := s.G.MX(), s.G.MZ()
	for zi := 0; zi < mz; zi += 3 {
		for xi := 0; xi < mx; xi += 5 {
			x := cfg.Lx * float64(xi) / float64(mx)
			z := cfg.Lz * float64(zi) / float64(mz)
			if d := math.Abs(plane[zi][xi] - want(x, z)); d > 1e-9 {
				t.Fatalf("plane[%d][%d] = %g, want %g", zi, xi, plane[zi][xi], want(x, z))
			}
		}
	}
}

// TestPhysicalPlaneMeanU: the mean profile must appear as a constant plane.
func TestPhysicalPlaneMeanU(t *testing.T) {
	cfg := Config{Nx: 8, Ny: 16, Nz: 8, ReTau: 10, Dt: 1e-3, Forcing: 1}
	s := serialSolver(t, cfg)
	s.SetLaminar()
	yi := 7
	want := s.MeanProfile()[yi]
	plane := s.PhysicalPlane(CompU, yi)
	for _, row := range plane {
		for _, v := range row {
			if math.Abs(v-want) > 1e-9 {
				t.Fatalf("mean plane value %g want %g", v, want)
			}
		}
	}
}

// TestPhysicalPlaneOmegaZWall: for laminar flow omega_z = -dU/dy; near the
// lower wall that is about -ReTau (wall shear in wall units).
func TestPhysicalPlaneOmegaZWall(t *testing.T) {
	cfg := Config{Nx: 8, Ny: 24, Nz: 8, ReTau: 5, Dt: 1e-3, Forcing: 1}
	s := serialSolver(t, cfg)
	s.SetLaminar()
	plane := s.PhysicalPlane(CompOmegaZ, 0) // at the wall
	want := -cfg.ReTau                      // -dU/dy|wall = -ReTau*y|... d/dy[Re(1-y^2)/2] = -Re*y -> at y=-1: +Re... sign check below
	got := plane[0][0]
	if math.Abs(math.Abs(got)-cfg.ReTau) > 1e-6 {
		t.Fatalf("wall omega_z %g, want +-%g", got, want)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Nx: 8, Ny: 16, Nz: 8, ReTau: 180, Dt: 1e-3, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := New(c, cfg)
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 5)
		Advance(s, 3)
		dir := t.TempDir()
		if _, err := s.WriteCheckpoint(ckpt.NewStore(dir)); err != nil {
			t.Error(err)
			return
		}

		s2, _ := New(c, cfg)
		if _, err := s2.ResumeLatest(ckpt.NewStore(dir)); err != nil {
			t.Error(err)
			return
		}
		if s2.Time != s.Time || s2.Step != s.Step {
			t.Errorf("time/step mismatch: %g/%d vs %g/%d", s2.Time, s2.Step, s.Time, s.Step)
			return
		}
		// Both must evolve identically afterwards.
		Advance(s, 2)
		Advance(s2, 2)
		for w := 0; w < s.nw; w++ {
			for i := range s.cv[w] {
				if cmplx.Abs(s.cv[w][i]-s2.cv[w][i]) > 1e-14 {
					t.Errorf("state diverged after restart at mode %d coef %d", w, i)
					return
				}
			}
		}
	})
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := New(c, Config{Nx: 8, Ny: 16, Nz: 8, ReTau: 180, Dt: 1e-3, Forcing: 1})
		dir := t.TempDir()
		if _, err := s.WriteCheckpoint(ckpt.NewStore(dir)); err != nil {
			t.Error(err)
			return
		}
		s2, _ := New(c, Config{Nx: 16, Ny: 16, Nz: 8, ReTau: 180, Dt: 1e-3, Forcing: 1})
		if _, err := s2.ResumeLatest(ckpt.NewStore(dir)); err == nil {
			t.Error("expected grid mismatch error")
		}
	})
}
