package core

import (
	"bytes"
	"math"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// TestStepOnceSteadyStateAllocsTrace: with the flight recorder attached
// (phase spans, exchange wire intervals, peer waits and step markers all
// recording), the warm step must stay within the same budget as the
// uninstrumented path. Events land in preallocated atomic slots, so
// tracing itself contributes zero heap objects per event.
func TestStepOnceSteadyStateAllocsTrace(t *testing.T) {
	trc := trace.New(0)
	warmStepAllocs(t, Config{Telemetry: telemetry.NewRegistry(), Trace: trc}, stepAllocBudget)
	if trc.Rank(0).Recorded() == 0 {
		t.Error("recorder attached but no events recorded")
	}
}

// TestTraceImpliesTelemetry: a config with only Trace set still gets phase
// spans — New provisions a private registry so the recorder has a span
// source to piggyback on.
func TestTraceImpliesTelemetry(t *testing.T) {
	trc := trace.New(0)
	cfg := Config{Nx: 8, Ny: 16, Nz: 8, ReTau: 180, Dt: 1e-3, Forcing: 1, Trace: trc}
	s := serialSolver(t, cfg)
	s.SetLaminar()
	Advance(s, 1)
	evs := trc.Rank(0).Events()
	var phases, steps int
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindPhase:
			phases++
		case trace.KindStep:
			steps++
		}
	}
	if phases == 0 || steps != 1 {
		t.Errorf("trace-only config recorded %d phase and %d step events", phases, steps)
	}
}

// TestMultiRankTraceMatchesTelemetry is the ISSUE's multi-rank acceptance:
// a P=4 traced run must export Chrome trace-event JSON with one complete
// track per rank, the per-phase durations summed from the trace must agree
// with the telemetry phase counters to within 10% (they piggyback on the
// same spans, so disagreement means dropped or torn events), and the
// critical-path analyzer must name a gating rank and phase for every step.
func TestMultiRankTraceMatchesTelemetry(t *testing.T) {
	const steps = 3
	reg := telemetry.NewRegistry()
	trc := trace.New(0)
	cfg := Config{Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
		PA: 2, PB: 2, Pool: par.NewPool(2), Telemetry: reg, Trace: trc}
	mpi.Run(4, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.SetLaminar()
		s.Perturb(0.3, 2, 2, 7)
		Advance(s, steps)
	})

	// One complete track per rank: every rank recorded every step marker
	// and no ring overwrote anything we are about to compare.
	perRank := trc.Events()
	if len(perRank) != 4 {
		t.Fatalf("trace carries %d rank tracks, want 4", len(perRank))
	}
	traceByPhase := make([]float64, telemetry.NumPhases)
	for rank, evs := range perRank {
		if len(evs) == 0 {
			t.Fatalf("rank %d track is empty", rank)
		}
		if d := trc.Rank(rank).Dropped(); d != 0 {
			t.Fatalf("rank %d dropped %d events; grow the ring for this test", rank, d)
		}
		var stepEvents int
		for _, ev := range evs {
			switch ev.Kind {
			case trace.KindStep:
				stepEvents++
			case trace.KindPhase:
				traceByPhase[ev.Phase] += ev.Dur.Seconds()
			}
		}
		if stepEvents != steps {
			t.Errorf("rank %d recorded %d step events, want %d", rank, stepEvents, steps)
		}
	}

	// Chrome export round-trips through the validator.
	var buf bytes.Buffer
	if err := trc.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("exported Chrome JSON invalid: %v", err)
	} else if n == 0 {
		t.Error("exported Chrome JSON has no events")
	}

	// Per-phase agreement with the telemetry counters (TotalSeconds sums
	// across ranks, as does traceByPhase).
	snap := reg.Snapshot()
	if snap.Steps != steps*4 { // StepDone totals across ranks
		t.Fatalf("telemetry saw %d rank-steps, want %d", snap.Steps, steps*4)
	}
	for _, ps := range snap.Phases {
		p, ok := telemetry.PhaseFromString(ps.Phase)
		if !ok {
			t.Fatalf("snapshot carries unknown phase %q", ps.Phase)
		}
		got := traceByPhase[p]
		if ps.TotalSeconds <= 0 {
			continue
		}
		if rel := math.Abs(got-ps.TotalSeconds) / ps.TotalSeconds; rel > 0.10 {
			t.Errorf("phase %s: trace sum %.6fs vs telemetry %.6fs (%.1f%% apart, want <10%%)",
				ps.Phase, got, ps.TotalSeconds, 100*rel)
		}
	}

	// The analyzer names a gating rank and phase for every step.
	reports := trace.Analyze(perRank)
	if len(reports) != steps {
		t.Fatalf("analyzer produced %d step reports, want %d", len(reports), steps)
	}
	for _, rep := range reports {
		if rep.GatingRank < 0 || rep.GatingRank >= 4 {
			t.Errorf("step %d: gating rank %d out of range", rep.Step, rep.GatingRank)
		}
		if rep.GatingPhase < 0 || rep.GatingPhase >= telemetry.NumPhases {
			t.Errorf("step %d: gating phase %v out of range", rep.Step, rep.GatingPhase)
		}
		if rep.GatingSeconds <= 0 {
			t.Errorf("step %d: gating seconds %g", rep.Step, rep.GatingSeconds)
		}
		for r, sl := range rep.SlackSeconds {
			if sl < 0 {
				t.Errorf("step %d rank %d: negative slack %g", rep.Step, r, sl)
			}
		}
		if rep.SlackSeconds[rep.GatingRank] != 0 {
			t.Errorf("step %d: gating rank carries slack %g", rep.Step,
				rep.SlackSeconds[rep.GatingRank])
		}
	}

	// The report digest built from this trace passes schema validation.
	rep := telemetry.NewReport("table9", reg, nil)
	rep.Trace = trace.Summarize(trc)
	if err := rep.Validate(); err != nil {
		t.Errorf("report with trace digest fails Validate: %v", err)
	}
}
