package core

import (
	"testing"

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

// TestStepOnceSteadyStateAllocs: after warm-up, one full RK3 step on a
// small grid must allocate at most stepAllocBudget heap objects. The seed
// allocated every scratch field, pencil buffer, and FFT temporary per
// substep (hundreds of thousands of objects per step at this size).
func TestStepOnceSteadyStateAllocs(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 24, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	s := serialSolver(t, cfg)
	s.SetLaminar()
	s.Perturb(0.2, 2, 2, 13)
	// Warm up: builds transpose plans, Galerkin caches, operator cache.
	Advance(s, 2)
	allocs := testing.AllocsPerRun(5, func() { s.StepOnce() })
	if allocs > stepAllocBudget {
		t.Errorf("steady-state StepOnce: %v allocs per step, budget %d",
			allocs, stepAllocBudget)
	}
	t.Logf("steady-state StepOnce: %v allocs per step (budget %d)", allocs, stepAllocBudget)
}

// TestStepOnceSteadyStateAllocsSkew: the skew-symmetric form runs both
// nonlinear pipelines plus the lazily built alternate buffer set; after
// warm-up it must stay within the same budget.
func TestStepOnceSteadyStateAllocsSkew(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 24, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
		Nonlinear: FormSkewSymmetric}
	s := serialSolver(t, cfg)
	s.SetLaminar()
	s.Perturb(0.2, 2, 2, 13)
	Advance(s, 2)
	allocs := testing.AllocsPerRun(5, func() { s.StepOnce() })
	if allocs > stepAllocBudget {
		t.Errorf("steady-state skew StepOnce: %v allocs per step, budget %d",
			allocs, stepAllocBudget)
	}
}

// TestStepOnceSteadyStateAllocsTelemetry: the acceptance bar for the
// telemetry subsystem — with a registry attached (phase spans, step
// histogram, comm counters all live), the warm step must stay within the
// same budget. Spans are value-typed and counters are preallocated
// atomics, so instrumentation itself contributes zero heap objects.
func TestStepOnceSteadyStateAllocsTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := Config{Nx: 16, Ny: 24, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
		Telemetry: reg}
	s := serialSolver(t, cfg)
	s.SetLaminar()
	s.Perturb(0.2, 2, 2, 13)
	Advance(s, 2)
	allocs := testing.AllocsPerRun(5, func() { s.StepOnce() })
	if allocs > stepAllocBudget {
		t.Errorf("steady-state instrumented StepOnce: %v allocs per step, budget %d",
			allocs, stepAllocBudget)
	}
	t.Logf("steady-state instrumented StepOnce: %v allocs per step (budget %d)",
		allocs, stepAllocBudget)
	if got := s.Telemetry().PhaseCalls(telemetry.PhaseNonlinear); got == 0 {
		t.Error("telemetry attached but no nonlinear spans recorded")
	}
}
