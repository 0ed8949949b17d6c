package core

import (
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/telemetry"
)

// TestTelemetryPhaseCoverage: the phase spans are leaf regions tiling the
// timestep, so the per-step sum of mean-rank phase seconds must track the
// measured step wall clock to within the repo's 10% acceptance bound
// (anything looser means a hot region escaped instrumentation). Runs the
// same serial configuration cmd/bench -table 9 -json reports on, for every
// workload: the step bracket that records the wall clock and credits the
// schedule's flops is written once, under all three. Each workload runs
// serially and on a pool of two workers, where the excursion's slab loop
// hands its spans across the pool. The two-worker rows run Ny = 9, whose
// nine y planes the pool splits 4 + 5, for 12 steps: a pass that booked
// only block 0's own work would miss the wait for the larger block, and
// there each row alone reads 0.4-0.9, not the 0.99 of full booking. That
// margin to the 0.90 floor is thin, so parfft's TestExcursionSlabSpans
// holds the same property without timing: the slab loop's spans open
// before the dispatch and close after the join. Under
// the race detector only the timing band is skipped: the race
// instrumentation skews the in-span/out-of-span split, but the steps still
// run the span handoff.
func TestTelemetryPhaseCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-ratio test, skipped in -short")
	}
	// Every phase of the divergence-form step must have fired; the isotropic
	// step has no velocity recovery, so no pressure phase.
	periodic := []telemetry.Phase{telemetry.PhaseNonlinear, telemetry.PhaseFFTForward,
		telemetry.PhaseFFTInverse, telemetry.PhaseTransposeAB, telemetry.PhaseViscousSolve}
	walled := append([]telemetry.Phase{telemetry.PhasePressure}, periodic...)
	for _, tc := range []struct {
		workload string
		ny       int
		want     []telemetry.Phase
	}{
		{WorkloadChannel, 17, walled},
		{WorkloadScalar, 17, walled},
		{WorkloadIsotropic, 16, periodic},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			checkPhaseCoverage(t, tc.workload, tc.ny, 1, 3, tc.want)
		})
		t.Run(tc.workload+"_2_workers", func(t *testing.T) {
			checkPhaseCoverage(t, tc.workload, 9, 2, 12, tc.want)
		})
	}
}

// checkPhaseCoverage runs the given warm steps of a 1x1 workload on a pool
// of the given workers (serially for one) and checks the steps, the flops,
// the phases present and, unless under the race detector, the phase sum
// against the step wall clock.
func checkPhaseCoverage(t *testing.T, workload string, ny, workers, steps int, want []telemetry.Phase) {
	reg := telemetry.NewRegistry()
	cfg := Config{Workload: workload, Nx: 16, Ny: ny, Nz: 16, ReTau: 180, Dt: 1e-3,
		Forcing: 1, Telemetry: reg}
	if workers > 1 {
		cfg.Pool = par.NewPool(workers)
		defer cfg.Pool.Close()
	}
	mpi.Run(1, func(c *mpi.Comm) {
		wl, err := NewWorkload(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		wl.InitDefault(0.3, 1)
		Advance(wl, 2) // warm caches so compile/plan time is not in the sample
		reg.Reset()
		Advance(wl, steps)
	})
	snap := reg.Snapshot()
	if snap.Steps != int64(steps) {
		t.Fatalf("Steps = %d, want %d", snap.Steps, steps)
	}
	sched, _ := WorkloadSchedule(cfg)
	if flops := int64(steps) * int64(sched.TotalFlops()); snap.Flops != flops {
		t.Errorf("Flops = %d, want %d steps of the %s schedule = %d", snap.Flops, steps, workload, flops)
	}
	wall := snap.MeanStepSeconds
	sum := snap.PhaseSecondsSum()
	if wall <= 0 || sum <= 0 {
		t.Fatalf("degenerate timings: wall=%g sum=%g", wall, sum)
	}
	ratio := sum / wall
	t.Logf("phase sum %.4fs / wall %.4fs = %.3f over %d steps", sum, wall, ratio, snap.Steps)
	if !telemetry.RaceEnabled && (ratio < 0.90 || ratio > 1.10) {
		t.Errorf("phase-seconds sum is %.1f%% of step wall clock, want within 10%%",
			100*ratio)
	}
	have := map[string]bool{}
	for _, p := range snap.Phases {
		have[p.Phase] = true
	}
	for _, p := range want {
		if !have[p.String()] {
			t.Errorf("phase %s missing from snapshot", p)
		}
	}
}
