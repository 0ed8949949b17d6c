package telemetry

import (
	"reflect"
	"testing"
	"time"
)

// TestDumpRestoreRoundTrip: a registry rebuilt from per-rank dumps must
// aggregate to exactly the snapshot of the original registry — the
// property the TCP transport's report path depends on.
func TestDumpRestoreRoundTrip(t *testing.T) {
	src := NewRegistry()
	for rank := 0; rank < 3; rank++ {
		c := src.Rank(rank)
		for i := 0; i < 4+rank; i++ {
			sp := c.Begin(PhaseNonlinear)
			time.Sleep(time.Microsecond)
			sp.End()
		}
		c.AddComm(CommYtoZ, int64(1000*(rank+1)), int64(rank+1))
		c.AddComm(CommCollective, 64, 2)
		c.AddFlops(int64(1e6 * (rank + 1)))
		c.StepDone(time.Duration(rank+1) * time.Millisecond)
	}

	dst := NewRegistry()
	for rank := 0; rank < 3; rank++ {
		if err := dst.RestoreRank(rank, src.Rank(rank).Dump()); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	a, b := src.Snapshot(), dst.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots diverge:\n src: %+v\n dst: %+v", a, b)
	}
}

// TestDumpFixedShape: every dump has the same documented length, the
// fixed-shape property that lets dumps ride mpi.Gather, and that length is
// the collector's counters alone, so a heartbeat frame carries no more.
func TestDumpFixedShape(t *testing.T) {
	if want := 2*int(NumPhases) + 3*int(NumCommOps) + 3; DumpLen() != want {
		t.Errorf("DumpLen() = %d, want %d: 2 per phase, 3 per comm channel, flops, steps, step time", DumpLen(), want)
	}
	empty := NewCollector(0)
	busy := NewCollector(1)
	sp := busy.Begin(PhasePressure)
	sp.End()
	busy.AddComm(CommXtoZ, 1, 1)
	if got := len(empty.Dump()); got != DumpLen() {
		t.Errorf("empty dump len %d, want %d", got, DumpLen())
	}
	if got := len(busy.Dump()); got != DumpLen() {
		t.Errorf("busy dump len %d, want %d", got, DumpLen())
	}
	if err := NewCollector(2).loadDump(make([]int64, 5)); err == nil {
		t.Error("short dump accepted")
	}
}
