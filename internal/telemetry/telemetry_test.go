package telemetry

import (
	"testing"
	"time"
)

// TestNilCollectorSafe: a nil *Collector must be a complete no-op sink —
// instrumented kernels never branch on "telemetry enabled".
func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	sp := c.Begin(PhaseNonlinear)
	sp.End()
	c.AddComm(CommYtoZ, 100, 2)
	c.AddFlops(5)
	c.StepDone(time.Millisecond)
	c.Reset()
	if c.PhaseSeconds(PhaseNonlinear) != 0 || c.PhaseCalls(PhaseNonlinear) != 0 ||
		c.Steps() != 0 || c.Flops() != 0 || c.Rank() != 0 {
		t.Fatal("nil collector reported nonzero state")
	}
}

// TestRecordingZeroAlloc: the steady-state recording path — Begin/End,
// comm counters, flop counters, step records — must perform zero heap
// allocations. This is what lets the instrumented RK3 step stay inside
// the repo's 64-object budget.
func TestRecordingZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	c := NewCollector(0)
	allocs := testing.AllocsPerRun(100, func() {
		sp := c.Begin(PhaseTransposeAB)
		sp.End()
		c.AddComm(CommZtoX, 4096, 3)
		c.AddFlops(1000)
		c.StepDone(time.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("recording path: %v allocs per cycle, want 0", allocs)
	}
}

// TestCollectorAccumulation: totals, calls and comm counters must
// accumulate exactly.
func TestCollectorAccumulation(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 5; i++ {
		sp := c.Begin(PhaseViscousSolve)
		sp.End()
	}
	c.AddComm(CommXtoZ, 100, 2)
	c.AddComm(CommXtoZ, 50, 1)
	c.AddFlops(10)
	c.AddFlops(20)
	if got := c.PhaseCalls(PhaseViscousSolve); got != 5 {
		t.Errorf("calls = %d, want 5", got)
	}
	if calls, msgs, bytes := c.CommCounts(CommXtoZ); calls != 2 || msgs != 3 || bytes != 150 {
		t.Errorf("comm = (%d, %d, %d), want (2, 3, 150)", calls, msgs, bytes)
	}
	if c.Flops() != 30 {
		t.Errorf("flops = %d, want 30", c.Flops())
	}
	if c.Rank() != 3 {
		t.Errorf("rank = %d", c.Rank())
	}
	c.Reset()
	if c.PhaseCalls(PhaseViscousSolve) != 0 || c.Flops() != 0 {
		t.Error("Reset did not zero accumulators")
	}
}

// TestPhaseNamesRoundTrip: every phase name must survive the
// string/enum round trip the JSON validator uses.
func TestPhaseNamesRoundTrip(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		got, ok := PhaseFromString(p.String())
		if !ok || got != p {
			t.Errorf("phase %d: round trip via %q failed", p, p.String())
		}
	}
	if _, ok := PhaseFromString("nope"); ok {
		t.Error("unknown phase name accepted")
	}
}
