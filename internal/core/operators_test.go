package core

import (
	"fmt"
	"math"
	"testing"

	"channeldns/internal/banded"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

// checkSetsByK2 requires every advanced mode of s to point at an operator set
// of its own k2, two modes to share a set if and only if their K2 bits are
// equal, and every implicit cache to hold one row of left-hand sides a set.
// It returns the number of advanced modes and of sets.
func checkSetsByK2(s *Solver) (modes, sets int, err error) {
	byBits := map[uint64]*wnOps{}
	distinct := map[*wnOps]bool{}
	for w, op := range s.ops {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			if op != nil {
				return 0, 0, fmt.Errorf("mode (%d,%d) is not advanced but has an operator set", ikx, ikz)
			}
			continue
		}
		bits := math.Float64bits(s.G.K2(ikx, ikz))
		if op == nil || math.Float64bits(op.k2) != bits {
			return 0, 0, fmt.Errorf("mode (%d,%d) points at a set of another k2", ikx, ikz)
		}
		if first, ok := byBits[bits]; ok && first != op {
			return 0, 0, fmt.Errorf("mode (%d,%d) has a set of its own for a k2 another set holds", ikx, ikz)
		}
		byBits[bits] = op
		distinct[op] = true
		modes++
	}
	if len(distinct) != len(byBits) {
		return 0, 0, fmt.Errorf("%d sets for %d distinct K2: modes of unequal k2 share a set", len(distinct), len(byBits))
	}
	for d, o := range s.imp {
		if len(o.lhs) != len(distinct) {
			return 0, 0, fmt.Errorf("imp[%d] holds %d rows of left-hand sides for %d sets", d, len(o.lhs), len(distinct))
		}
	}
	return modes, len(distinct), nil
}

// TestOperatorSetsShared: ensureOps builds one operator set per distinct k2,
// not one per mode, the scalar shares nu's left-hand sides exactly when
// kappa == nu, and a change of dt leaves nothing of the old sets reachable.
func TestOperatorSetsShared(t *testing.T) {
	t.Run("serial-48", func(t *testing.T) {
		// kx = i, kz = 2j on the 2pi x pi box: k2 = i^2 + 4j^2 exactly, over
		// 0 <= i, |j| <= 23 — 429 values for 1127 advanced modes.
		s := serialSolver(t, Config{Nx: 48, Ny: 49, Nz: 48, ReTau: 180, Dt: 2e-4, Forcing: 1})
		s.ensureOps(s.Cfg.Dt)
		modes, sets, err := checkSetsByK2(s)
		if err != nil {
			t.Fatal(err)
		}
		if modes != 1127 || sets != 429 {
			t.Errorf("%d advanced modes in %d sets, want 1127 in 429", modes, sets)
		}
	})

	t.Run("scalar-diffusivity", func(t *testing.T) {
		for _, pr := range []float64{1, 0.71} {
			var sc *ScalarSolver
			var err error
			cfg := Config{Workload: WorkloadScalar, Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1, Prandtl: pr}
			mpi.Run(1, func(c *mpi.Comm) { sc, err = NewScalar(c, cfg) })
			if err != nil {
				t.Fatal(err)
			}
			s := sc.Solver
			s.ensureOps(s.Cfg.Dt)
			if _, _, err := checkSetsByK2(s); err != nil {
				t.Fatal(err)
			}
			nu := map[*banded.Compact]bool{}
			for _, row := range append(s.imp[0].lhs, s.imp[0].mean) {
				for _, m := range row {
					nu[m] = true
				}
			}
			shared, own := 0, 0
			for _, row := range append(sc.diffusive.lhs, sc.diffusive.mean) {
				for _, m := range row {
					if nu[m] {
						shared++
					} else {
						own++
					}
				}
			}
			switch {
			case pr == 1 && (len(s.imp) != 1 || sc.diffusive != s.imp[0] || own != 0):
				t.Errorf("Pr = 1: %d caches, theta solves against %d of nu's matrices and %d of its own", len(s.imp), shared, own)
			case pr != 1 && (len(s.imp) != 2 || shared != 0):
				t.Errorf("Pr = %g: %d caches, theta solves against %d of nu's matrices", pr, len(s.imp), shared)
			}
		}
	})

	t.Run("set-dt", func(t *testing.T) {
		s := serialSolver(t, Config{Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1})
		s.ensureOps(s.Cfg.Dt)
		old := map[any]bool{}
		for _, op := range s.ops {
			old[op] = true
		}
		forEachOperator(s, func(_ string, m *banded.Compact) { old[m] = true })
		delete(old, s.b0fac) // the one operator that does not depend on dt
		s.SetDt(s.Cfg.Dt / 2)
		s.InitDefault(0.2, 13)
		s.StepOnce()
		if s.opsDt != s.Cfg.Dt {
			t.Fatalf("operators built for dt %g after a step at %g", s.opsDt, s.Cfg.Dt)
		}
		if _, _, err := checkSetsByK2(s); err != nil {
			t.Fatal(err)
		}
		for _, op := range s.ops {
			if op != nil && old[op] {
				t.Fatal("a mode points at an operator set built for the old dt")
			}
		}
		forEachOperator(s, func(name string, m *banded.Compact) {
			if old[m] {
				t.Errorf("%s was built for the old dt", name)
			}
		})
	})

	t.Run("2x2", func(t *testing.T) {
		cfg := Config{Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1, PA: 2, PB: 2}
		mpi.Run(4, func(c *mpi.Comm) {
			s, err := New(c, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			s.ensureOps(s.Cfg.Dt)
			if _, _, err := checkSetsByK2(s); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
		})
	})

	// Two pool workers solve against one shared Compact: the halves of the
	// mode range a 2-worker pool hands out hold modes of equal k2 (kx = 2,
	// kz = 0 and kx = 0, kz = 2 among them), and the scalar at Pr = 1 solves
	// theta against the same matrices. Under -race any write to a shared
	// operator during a solve shows.
	t.Run("pool-2", func(t *testing.T) {
		run := func(pool *par.Pool) (*ScalarSolver, float64) {
			var sc *ScalarSolver
			var err error
			cfg := Config{Workload: WorkloadScalar, Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1, Pool: pool}
			mpi.Run(1, func(c *mpi.Comm) { sc, err = NewScalar(c, cfg) })
			if err != nil {
				t.Fatal(err)
			}
			sc.InitDefault(0.2, 13)
			Advance(sc, 2)
			return sc, sc.TotalEnergy() + sc.ScalarVariance()
		}
		sc, pooled := run(par.NewPool(2))
		s := sc.Solver
		half := map[*wnOps]bool{}
		for _, op := range s.ops[:s.nw/2] {
			half[op] = true
		}
		crossed := 0
		for _, op := range s.ops[s.nw/2:] {
			if op != nil && half[op] {
				crossed++
			}
		}
		if crossed == 0 {
			t.Error("no operator set is shared across the two workers' halves")
		}
		if _, serial := run(nil); math.Float64bits(pooled) != math.Float64bits(serial) {
			t.Errorf("2-worker pool: E + th2 = %v, serial %v", pooled, serial)
		}
	})
}

// BenchmarkEnsureOps: one rebuild of the operator caches of a serial
// 48x49x48 channel after a change of dt, as a restart or an adaptive step
// pays it; the operator share of the benchmark's setup_s.
func BenchmarkEnsureOps(b *testing.B) {
	var s *Solver
	var err error
	mpi.Run(1, func(c *mpi.Comm) {
		s, err = New(c, Config{Nx: 48, Ny: 49, Nz: 48, ReTau: 180, Dt: 2e-4, Forcing: 1})
	})
	if err != nil {
		b.Fatal(err)
	}
	s.ensureOps(s.Cfg.Dt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt := []float64{1e-4, 2e-4}[i%2]
		s.SetDt(dt)
		s.ensureOps(dt)
	}
}
