package server

import (
	"sync"
	"testing"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
)

// stepAllocBudget mirrors the documented hot-path bound from
// internal/core's alloc tests: a warm serial RK3 step allocates only the
// worker-pool closure headers, ~21 objects on a nil pool, budget 64.
const stepAllocBudget = 64

// benchSolver builds a warm single-rank channel workload the way the
// manager does — from a JobSpec through the workload registry, with a
// telemetry registry attached — and returns it ready for steady-state
// measurement.
func benchSolver(tb testing.TB) (core.Workload, *telemetry.Registry, func()) {
	tb.Helper()
	spec := JobSpec{Nx: 16, Ny: 24, Nz: 16, Dt: 1e-3, Steps: 1}
	reg := telemetry.NewRegistry()
	cfg := spec.Config(nil, reg, nil)
	var wl core.Workload
	mpi.Run(1, func(c *mpi.Comm) {
		var err error
		wl, err = core.NewWorkload(c, cfg)
		if err != nil {
			tb.Error(err)
			return
		}
		wl.InitDefault(0.2, 13)
		// Warm up: transpose plans, operator cache.
		core.Advance(wl, 2)
	})
	if wl == nil {
		tb.Fatal("workload construction failed")
	}
	return wl, reg, func() {}
}

// TestStepAllocsWithWatchers is the tentpole's hot-path isolation bar:
// the service must observe its runs — registry attached, hub carrying
// live readers, status/telemetry/plane events flowing between steps —
// without adding a single allocation *inside* the step. The warm step
// with 100 readers parked in Hub.Wait must allocate exactly what it
// allocates with none, and stay within the documented budget.
func TestStepAllocsWithWatchers(t *testing.T) {
	wl, reg, cleanup := benchSolver(t)
	defer cleanup()

	base := testing.AllocsPerRun(5, func() { wl.StepOnce() })

	h := NewHub()
	const watchers = 100
	var readers sync.WaitGroup
	for range watchers {
		readers.Add(1)
		go func() {
			defer readers.Done()
			follow(h)
		}()
	}
	// Publish a realistic between-steps burst so the streaming machinery is
	// warm, then measure once every reader has read it and parked again.
	prev := reg.Snapshot()
	publish := func() {
		h.Publish(EventStatus, Status{Step: wl.CurrentStep(), Time: wl.CurrentTime()})
		cur := reg.Snapshot()
		if d := telemetry.DeltaSnapshot(&prev, &cur); !d.Empty() {
			h.Publish(EventTelemetry, d)
		}
		prev = cur
	}
	publish()
	waitParked(t, watchers, "select", "(*Hub).Wait")

	withWatchers := testing.AllocsPerRun(5, func() { wl.StepOnce() })
	publish()
	h.Close()
	readers.Wait()

	if withWatchers != base {
		t.Errorf("StepOnce allocates %v with %d readers parked vs %v bare: streaming leaked into the hot path",
			withWatchers, watchers, base)
	}
	if withWatchers > stepAllocBudget {
		t.Errorf("StepOnce with readers: %v allocs per step, budget %d", withWatchers, stepAllocBudget)
	}
	t.Logf("StepOnce: %v allocs bare, %v with %d readers (budget %d)", base, withWatchers, watchers, stepAllocBudget)
}
