package core

import (
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
)

// TestTelemetryPhaseCoverage: the phase spans are leaf regions tiling the
// timestep, so the per-step sum of mean-rank phase seconds must track the
// measured step wall clock to within the repo's 10% acceptance bound
// (anything looser means a hot region escaped instrumentation). Runs the
// same serial configuration cmd/bench -table 9 -json reports on, for every
// workload: the step bracket that records the wall clock and credits the
// schedule's flops is written once, under all three.
func TestTelemetryPhaseCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-ratio test, skipped in -short")
	}
	if telemetry.RaceEnabled {
		t.Skip("race instrumentation skews the in-span/out-of-span time split")
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
			reg := telemetry.NewRegistry()
			cfg := Config{Workload: tc.workload, Nx: 16, Ny: tc.ny, Nz: 16, ReTau: 180, Dt: 1e-3,
				Forcing: 1, Telemetry: reg}
			mpi.Run(1, func(c *mpi.Comm) {
				wl, err := NewWorkload(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				wl.InitDefault(0.3, 1)
				Advance(wl, 2) // warm caches so compile/plan time is not in the sample
				reg.Reset()
				Advance(wl, 3)
			})
			snap := reg.Snapshot()
			if snap.Steps != 3 {
				t.Fatalf("Steps = %d, want 3", snap.Steps)
			}
			sched, _ := WorkloadSchedule(cfg)
			if want := 3 * int64(sched.TotalFlops()); snap.Flops != want {
				t.Errorf("Flops = %d, want 3 steps of the %s schedule = %d", snap.Flops, tc.workload, want)
			}
			wall := snap.MeanStepSeconds
			sum := snap.PhaseSecondsSum()
			if wall <= 0 || sum <= 0 {
				t.Fatalf("degenerate timings: wall=%g sum=%g", wall, sum)
			}
			ratio := sum / wall
			t.Logf("phase sum %.4fs / wall %.4fs = %.3f over %d steps", sum, wall, ratio, snap.Steps)
			if ratio < 0.90 || ratio > 1.10 {
				t.Errorf("phase-seconds sum is %.1f%% of step wall clock, want within 10%%",
					100*ratio)
			}
			have := map[string]bool{}
			for _, p := range snap.Phases {
				have[p.Phase] = true
			}
			for _, p := range tc.want {
				if !have[p.String()] {
					t.Errorf("phase %s missing from snapshot", p)
				}
			}
		})
	}
}
