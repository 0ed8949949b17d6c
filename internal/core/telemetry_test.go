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

// TestTelemetryPhaseCoverageOverlap: the pipelined transpose/FFT path must
// preserve the leaf-span tiling invariant even though transpose and FFT
// work now interleave in time — the transpose spans are segmented around
// each consume callback and the consume runs under its own FFT phase, so
// no instant is double-counted and none escapes. Multi-rank (2x2) because
// P=1 falls back to the serial path; rank goroutines share the machine, so
// the acceptance band is wider than the serial test's 10%.
func TestTelemetryPhaseCoverageOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-ratio test, skipped in -short")
	}
	if telemetry.RaceEnabled {
		t.Skip("race instrumentation skews the in-span/out-of-span time split")
	}
	reg := telemetry.NewRegistry()
	cfg := Config{Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
		PA: 2, PB: 2, Overlap: true, Telemetry: reg}
	mpi.Run(4, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 1)
		Advance(s, 2) // warm caches, plans, streams and wire arenas
		c.Barrier()
		if c.Rank() == 0 {
			reg.Reset()
		}
		c.Barrier()
		Advance(s, 3)
	})
	snap := reg.Snapshot()
	// Steps sums across the 4 rank collectors: 3 recorded steps per rank.
	if snap.Steps != 12 {
		t.Fatalf("Steps = %d, want 12 (3 steps x 4 ranks)", snap.Steps)
	}
	// MeanStepSeconds and PhaseSecondsSum both reduce per-rank totals the
	// same way (mean over ranks), so the tiling ratio is rank-count free.
	wall := snap.MeanStepSeconds
	sum := snap.PhaseSecondsSum()
	if wall <= 0 || sum <= 0 {
		t.Fatalf("degenerate timings: wall=%g sum=%g", wall, sum)
	}
	ratio := sum / wall
	t.Logf("overlapped phase sum %.4fs / wall %.4fs = %.3f over %d rank-steps",
		sum, wall, ratio, snap.Steps)
	// Waits on in-flight chunks happen inside the segmented transpose spans
	// and consume work inside FFT spans, so the tiling bound survives the
	// overlap; scheduling noise across 4 rank goroutines earns the wider
	// 20% band (the serial test holds the tight 10%).
	if ratio < 0.80 || ratio > 1.20 {
		t.Errorf("overlapped phase-seconds sum is %.1f%% of step wall clock, want within 20%%",
			100*ratio)
	}
	want := []telemetry.Phase{telemetry.PhaseNonlinear, telemetry.PhaseFFTForward,
		telemetry.PhaseFFTInverse, telemetry.PhaseTransposeAB,
		telemetry.PhaseViscousSolve, telemetry.PhasePressure}
	have := map[string]bool{}
	for _, p := range snap.Phases {
		have[p.Phase] = true
	}
	for _, p := range want {
		if !have[p.String()] {
			t.Errorf("phase %s missing from overlapped snapshot", p)
		}
	}
}
