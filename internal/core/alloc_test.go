package core

import (
	"fmt"
	"testing"

	"channeldns/internal/banded"
	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
)

// stepAllocBudget is the documented per-step allocation budget for a warm
// serial (P=1, nil pool) solver: the step workspace arena, transpose
// plans, and FFT scratch are all preallocated, so the only steady-state
// allocations left are the closure headers passed to the worker pool (a
// handful per substep, ~6 loop submissions each) plus incidental runtime
// bookkeeping. Anything above this bound means a hot-path allocation
// regressed.
const stepAllocBudget = 64

// warmStepAllocs builds cfg's workload serially at 16x24x16, seeds its
// default initial condition, warms it up (transpose plans, operator caches,
// lazily built buffers), holds one warm step to limit (at most
// stepAllocBudget) and returns the workload.
func warmStepAllocs(t *testing.T, cfg Config, limit float64) Workload {
	t.Helper()
	cfg.Nx, cfg.Ny, cfg.Nz, cfg.ReTau, cfg.Dt = 16, 24, 16, 180, 1e-3
	if cfg.Workload != WorkloadIsotropic {
		cfg.Forcing = 1
	}
	var wl Workload
	var err error
	mpi.Run(1, func(c *mpi.Comm) { wl, err = NewWorkload(c, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	wl.InitDefault(0.2, 13)
	Advance(wl, 2)
	allocs := testing.AllocsPerRun(5, wl.StepOnce)
	if allocs > limit {
		t.Errorf("steady-state StepOnce: %v allocs per step, limit %v", allocs, limit)
	}
	t.Logf("steady-state StepOnce: %v allocs per step (limit %v, budget %d)", allocs, limit, stepAllocBudget)
	return wl
}

// TestStepOnceSteadyStateAllocs: after warm-up, one full RK3 step on a
// small grid must allocate at most stepAllocBudget heap objects, whatever
// the workload and the nonlinear form — they all run the one prebound
// excursion. (The seed allocated every scratch field, pencil buffer and FFT
// temporary per substep: hundreds of thousands of objects per step at this
// size.) The skew form runs both passes plus the lazily built alternate
// buffer set; the scalar rides the momentum pass. Inside the budget, each case is
// held to the count measured before the three solvers moved onto the shared
// skeleton (go1.24, amd64), so its step bracket and line advances are seen to
// add nothing; the scalar's count fell from 24 when theta moved onto the
// momentum pass.
func TestStepOnceSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		parent float64
	}{
		{"divergence", Config{}, 9},
		{"convective", Config{Nonlinear: FormConvective}, 9},
		{"skew", Config{Nonlinear: FormSkewSymmetric}, 15},
		{"isotropic", Config{Workload: WorkloadIsotropic}, 9},
		{"scalar", Config{Workload: WorkloadScalar}, 18},
	} {
		t.Run(tc.name, func(t *testing.T) { warmStepAllocs(t, tc.cfg, tc.parent) })
	}
}

// TestStepOnceSteadyStateAllocsTCP: the wire path's budget. A warm scalar
// step on 1x2 ranks over real sockets — six frames each way — costs 60 heap
// objects in the whole process (go1.24, amd64): the two ranks' 18 each and two
// per frame, the boxing of the payload at the send and at the receive. The
// limit leaves six spare for a frame a busy host makes a link allocate anew
// because its writer has not handed the last one back yet. The step cost 625
// when every frame was encoded into fresh memory by append, read into a fresh
// body and decoded into a fresh slice.
func TestStepOnceSteadyStateAllocsTCP(t *testing.T) {
	const limit = 66
	cfg := Config{Workload: WorkloadScalar, Nx: 16, Ny: 24, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1, PA: 1, PB: 2}
	step, stepped := make(chan bool), make(chan bool)
	done := make(chan bool)
	go func() {
		defer close(done)
		mpi.RunTCP(2, func(c *mpi.Comm) {
			wl, err := NewWorkload(c, cfg)
			if err != nil {
				t.Error(err)
			} else {
				wl.InitDefault(0.2, 13)
				Advance(wl, 2)
			}
			for range step {
				if wl != nil {
					wl.StepOnce()
				}
				stepped <- true
			}
		})
	}()
	allocs := testing.AllocsPerRun(5, func() {
		step <- true
		step <- true
		<-stepped
		<-stepped
	})
	close(step)
	<-done
	if allocs > limit {
		t.Errorf("steady-state StepOnce over TCP: %v allocs per step, limit %v", allocs, limit)
	}
	t.Logf("steady-state StepOnce over TCP: %v allocs per step (limit %v)", allocs, limit)
}

// TestStepOnceSteadyStateAllocsTelemetry: the acceptance bar for the
// telemetry subsystem — with a registry attached (phase spans, step
// histogram, comm counters all live), the warm step must stay within the
// same budget. Spans are value-typed and counters are preallocated
// atomics, so instrumentation itself contributes zero heap objects.
func TestStepOnceSteadyStateAllocsTelemetry(t *testing.T) {
	wl := warmStepAllocs(t, Config{Telemetry: telemetry.NewRegistry()}, stepAllocBudget)
	if got := wl.(*Solver).Telemetry().PhaseCalls(telemetry.PhaseNonlinear); got == 0 {
		t.Error("telemetry attached but no nonlinear spans recorded")
	}
}

// forEachOperator visits every factored wall-normal operator a channel-family
// solver holds after ensureOps, each once: B0, and per operator set the
// v-recovery operator and the three left-hand sides of every distinct
// transported diffusivity, plus the mean's.
func forEachOperator(s *Solver, visit func(name string, m *banded.Compact)) {
	visit("b0fac", s.b0fac)
	seen := map[*wnOps]bool{}
	for _, op := range s.ops {
		if op != nil && !seen[op] {
			seen[op] = true
			visit(fmt.Sprintf("helm[%d]", op.set), op.helm)
		}
	}
	for d, o := range s.imp {
		for sub, m := range o.mean {
			visit(fmt.Sprintf("imp[%d].mean[%d]", d, sub), m)
		}
		for i, lhs := range o.lhs {
			for sub, m := range lhs {
				visit(fmt.Sprintf("imp[%d].lhs[%d][%d]", d, i, sub), m)
			}
		}
	}
}

// TestOperatorsAtNonzeroExtent: every factored operator is stored at the
// extent of its nonzeros, not at the 2*degree+1 band its rows fit in (679
// floats at ny = 49, degree 7). The rows are declared at the degree+1 = 8
// splines of a collocation point, 49*8 = 392 floats, and Factor trims the
// seven splines that are exactly zero at a wall from each wall value row.
// The 8x49x8 grid holds 14 distinct k2 = i^2 + 4j^2 (0 <= i, |j| <= 3; 4 twice),
// so b0fac, the three mean operators and four per set: 60 operators.
func TestOperatorsAtNonzeroExtent(t *testing.T) {
	s := serialSolver(t, Config{Nx: 8, Ny: 49, Nz: 8, ReTau: 180, Dt: 2e-4, Forcing: 1})
	s.ensureOps(s.Cfg.Dt)
	count := 0
	forEachOperator(s, func(name string, m *banded.Compact) {
		count++
		if got, want := m.StorageFloats(), 392-2*7; got != want {
			t.Errorf("%s stores %d floats, want %d", name, got, want)
		}
	})
	if want := 1 + 3 + 4*14; count != want {
		t.Fatalf("%d operators visited, want %d", count, want)
	}
}

// TestEnsureOpsAllocs: rebuilding the operator caches after a change of dt
// costs a fixed few allocations per distinct factored operator (the matrix,
// its row table, its slab), one slab for all the influence solutions and the
// few of grouping the modes into operator sets — not one allocation per
// matrix row or per homogeneous solve, as it used to (about 52 per operator).
func TestEnsureOpsAllocs(t *testing.T) {
	for _, workload := range []string{WorkloadChannel, WorkloadScalar} {
		var wl Workload
		var err error
		cfg := Config{Workload: workload, Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
		mpi.Run(1, func(c *mpi.Comm) { wl, err = NewWorkload(c, cfg) })
		if err != nil {
			t.Fatal(err)
		}
		s := wl.(ChannelFlow).ChannelSolver()
		s.ensureOps(s.Cfg.Dt)
		operators := -1 // b0fac is not rebuilt
		forEachOperator(s, func(string, *banded.Compact) { operators++ })
		dt := s.Cfg.Dt
		allocs := testing.AllocsPerRun(3, func() {
			dt /= 2
			s.SetDt(dt)
			s.ensureOps(dt)
		})
		if limit := float64(4*operators + 16); allocs > limit {
			t.Errorf("%s: ensureOps rebuild: %v allocs for %d operators, limit %v", workload, allocs, operators, limit)
		}
		t.Logf("%s: ensureOps rebuild: %v allocs for %d operators", workload, allocs, operators)
	}
}

// TestStatusLineAllocsIndependentOfGrid: a status line (energy, friction and
// bulk velocity, boundary residual) evaluates every local mode's velocity
// into reused scratch lines and interpolates against a basis factored once,
// so what it allocates does not grow with the grid.
func TestStatusLineAllocsIndependentOfGrid(t *testing.T) {
	var allocs [2]float64
	for i, n := range []int{16, 48} {
		var s *Solver
		var err error
		mpi.Run(1, func(c *mpi.Comm) {
			s, err = New(c, Config{Nx: n, Ny: n + 1, Nz: n, ReTau: 180, Dt: 1e-3, Forcing: 1})
		})
		if err != nil {
			t.Fatal(err)
		}
		s.InitDefault(0.2, 13)
		s.StatusLine() // the first call factors the interpolation matrix
		allocs[i] = testing.AllocsPerRun(3, func() { s.StatusLine() })
	}
	if allocs[0] != allocs[1] {
		t.Errorf("StatusLine allocates %v objects at 16x17x16 but %v at 48x49x48", allocs[0], allocs[1])
	}
	t.Logf("StatusLine: %v allocs at 16x17x16 and %v at 48x49x48", allocs[0], allocs[1])
}
