package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid(16, 24, 8, 2*math.Pi, math.Pi)
	if g.NKx() != 8 || g.MX() != 24 || g.MZ() != 12 {
		t.Errorf("NKx=%d MX=%d MZ=%d", g.NKx(), g.MX(), g.MZ())
	}
	if math.Abs(g.Alpha()-1) > 1e-15 || math.Abs(g.Beta()-2) > 1e-15 {
		t.Errorf("alpha=%g beta=%g", g.Alpha(), g.Beta())
	}
	if g.Kx(3) != 3 {
		t.Errorf("Kx(3)=%g", g.Kx(3))
	}
	if g.DOF() != 16*24*8 {
		t.Errorf("DOF=%d", g.DOF())
	}
}

func TestKzWrapOrder(t *testing.T) {
	g := NewGrid(8, 8, 8, 2*math.Pi, 2*math.Pi)
	want := []int{0, 1, 2, 3, 0, -3, -2, -1} // slot 4 = Nyquist -> 0
	for j, w := range want {
		if got := g.KzIndex(j); got != w {
			t.Errorf("KzIndex(%d)=%d want %d", j, got, w)
		}
	}
	if !g.IsNyquistZ(4) || g.IsNyquistZ(3) {
		t.Error("Nyquist detection wrong")
	}
}

func TestConjIndexZ(t *testing.T) {
	g := NewGrid(8, 8, 16, 2*math.Pi, 2*math.Pi)
	f := func(seed int64) bool {
		for j := 0; j < 16; j++ {
			jc := g.ConjIndexZ(j)
			if g.KzIndex(jc) != -g.KzIndex(j) {
				return false
			}
			if g.ConjIndexZ(jc) != j {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1}); err != nil {
		t.Error(err)
	}
}

func TestK2(t *testing.T) {
	g := NewGrid(8, 8, 8, 2*math.Pi, math.Pi)
	// kx = i, kz = 2*kz'.
	if got := g.K2(2, 1); math.Abs(got-(4+4)) > 1e-12 {
		t.Errorf("K2(2,1)=%g want 8", got)
	}
	if got := g.K2(0, 7); math.Abs(got-4) > 1e-12 { // kz' = -1 -> (2)^2
		t.Errorf("K2(0,7)=%g want 4", got)
	}
}

// TestGridShapeValidation checks that Config.Validate refuses the grid
// shapes the Fourier directions cannot carry. The base config is
// isotropic (Fourier in y) so that no spline-degree check on Ny hides
// the shape check, and it must itself pass.
func TestGridShapeValidation(t *testing.T) {
	base := Config{Workload: WorkloadIsotropic, Nx: 8, Ny: 8, Nz: 8, Lx: 1, Lz: 1, ReTau: 100, Dt: 0.1}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config refused: %v", err)
	}
	for name, edit := range map[string]func(*Config){
		"odd Nx":     func(c *Config) { c.Nx = 7 },
		"odd Nz":     func(c *Config) { c.Nz = 7 },
		"tiny Nx":    func(c *Config) { c.Nx = 2 },
		"tiny Ny":    func(c *Config) { c.Ny = 2 },
		"bad domain": func(c *Config) { c.Lx = -1 }, // zero means the default extent
	} {
		cfg := base
		edit(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
