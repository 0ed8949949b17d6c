package core

import (
	"testing"

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
// buffer set; the scalar adds a third pass. Inside the budget, each case is
// held to the count measured before the three solvers moved onto the shared
// skeleton (go1.24, amd64), so its step bracket and line advances are seen to
// add nothing.
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
		{"scalar", Config{Workload: WorkloadScalar}, 24},
	} {
		t.Run(tc.name, func(t *testing.T) { warmStepAllocs(t, tc.cfg, tc.parent) })
	}
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
