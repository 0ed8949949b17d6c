package stats

import (
	"math"
	"strings"
	"testing"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// TestBudgetLaminarAllZero: a pure laminar state has no fluctuations, so
// every budget term vanishes.
func TestBudgetLaminarAllZero(t *testing.T) {
	cfg := core.Config{Nx: 8, Ny: 20, Nz: 8, ReTau: 50, Dt: 1e-3, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := core.New(c, cfg)
		s.SetLaminar()
		b := TKEBudget(s)
		for i := range b.Y {
			if b.TKE[i] != 0 || b.Production[i] != 0 || b.Dissipation[i] != 0 {
				t.Fatalf("laminar budget nonzero at %d", i)
			}
		}
	})
}

// TestBudgetSingleModeDissipation: for a single v mode with known shape the
// dissipation can be computed in closed form from the mode's amplitudes.
func TestBudgetSingleModeDissipation(t *testing.T) {
	cfg := core.Config{Nx: 8, Ny: 32, Nz: 8, ReTau: 10, Dt: 1e-3, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := core.New(c, cfg)
		ikx, ikz := 1, 1
		s.SetModeV(ikx, ikz, func(y float64) complex128 {
			q := 1 - y*y
			return complex(0.3*q*q, 0)
		})
		b := TKEBudget(s)
		vel := velLines(6, cfg.Ny)
		seen := false
		s.EachModeVelocity(vel, func(jx, jz int, _ float64) {
			if jx != ikx || jz != ikz {
				return
			}
			seen = true
			u, v, w, uy, vy, wy := vel[0], vel[1], vel[2], vel[3], vel[4], vel[5]
			kh2 := s.G.K2(ikx, ikz)
			nu := s.Nu()
			for i, y := range s.CollocationPoints() {
				want := 2 * nu * (kh2*(absSq(u[i])+absSq(v[i])+absSq(w[i])) +
					absSq(uy[i]) + absSq(vy[i]) + absSq(wy[i]))
				if math.Abs(b.Dissipation[i]-want) > 1e-12*(1+want) {
					t.Fatalf("dissipation at y=%g: %g want %g", y, b.Dissipation[i], want)
				}
			}
		})
		if !seen {
			t.Fatalf("mode (%d,%d) not visited in a serial run", ikx, ikz)
		}
	})
}

// TestBudgetProductionSign: in a sheared turbulent-like state, production
// integrated over the channel should be positive (energy flows from the
// mean to the fluctuations).
func TestBudgetProductionSign(t *testing.T) {
	cfg := core.Config{Nx: 16, Ny: 33, Nz: 16, ReTau: 180, Dt: 5e-4, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := core.New(c, cfg)
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 41)
		core.Advance(s, 60) // let the shear tilt the fluctuations
		b := TKEBudget(s)
		tot := 0.0
		for i := 1; i < len(b.Y); i++ {
			tot += (b.Production[i] + b.Production[i-1]) / 2 * (b.Y[i] - b.Y[i-1])
		}
		if tot <= 0 {
			t.Errorf("integrated production %g, want positive", tot)
		}
		// Dissipation is positive semidefinite pointwise.
		for i := range b.Dissipation {
			if b.Dissipation[i] < 0 {
				t.Fatalf("negative dissipation at %d", i)
			}
		}
	})
}

// TestBudgetDistributedMatchesSerial: budget profiles must be decomposition
// independent.
func TestBudgetDistributedMatchesSerial(t *testing.T) {
	cfg := core.Config{Nx: 16, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	var ref Budget
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := core.New(c, cfg)
		s.SetLaminar()
		s.Perturb(0.4, 2, 2, 8)
		core.Advance(s, 2)
		ref = TKEBudget(s)
	})
	pcfg := cfg
	pcfg.PA, pcfg.PB = 2, 2
	mpi.Run(4, func(c *mpi.Comm) {
		s, _ := core.New(c, pcfg)
		s.SetLaminar()
		s.Perturb(0.4, 2, 2, 8)
		core.Advance(s, 2)
		b := TKEBudget(s)
		for i := range ref.Y {
			if math.Abs(b.Production[i]-ref.Production[i]) > 1e-10 ||
				math.Abs(b.Dissipation[i]-ref.Dissipation[i]) > 1e-10 ||
				math.Abs(b.ViscousDiffusion[i]-ref.ViscousDiffusion[i]) > 1e-8 {
				t.Fatalf("budget differs at %d", i)
			}
		}
	})
}

func TestBudgetWrite(t *testing.T) {
	b := Budget{Y: []float64{0}, TKE: []float64{1}, Production: []float64{2},
		Dissipation: []float64{3}, ViscousDiffusion: []float64{4}}
	var sb strings.Builder
	if err := b.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "production") {
		t.Error("missing header")
	}
}
