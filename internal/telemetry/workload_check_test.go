package telemetry

import (
	"strings"
	"testing"

	"channeldns/internal/schedule"
)

// fixtureReport builds a small valid report with one phase, one comm
// channel and one metric.
func fixtureReport() *Report {
	return &Report{
		Schema:          SchemaVersion,
		Table:           "table9",
		GitRev:          "unknown",
		GoVersion:       "go",
		Config:          map[string]string{"nx": "32", "steps": "3"},
		Ranks:           1,
		WallSeconds:     0.030,
		PhaseSecondsSum: 0.029,
		Steps:           3,
		Phases: []PhaseStats{{
			Phase: "transpose", Calls: 36,
			TotalSeconds:   0.010,
			MinRankSeconds: 0.010, MeanRankSeconds: 0.010, MaxRankSeconds: 0.010,
			Imbalance: 1,
		}},
		Comm:            []CommStats{{Op: "YtoZ", Calls: 12, Messages: 12, Bytes: 1 << 20}},
		Flops:           1e9,
		GFlopsSustained: 1.0,
		AllocsPerStep:   21,
		Metrics:         map[string]float64{"speedup": 1},
	}
}

// aggregateFixture builds a report whose schedule sends two different-sized
// YtoZ ops per execution (two passes of different shapes in one substep),
// measured over three executions.
func aggregateFixture() *Report {
	r := fixtureReport()
	r.Schedule = &schedule.Schedule{
		Name: "timestep", Nx: 16, Ny: 17, Nz: 16, NKx: 8, PA: 2, PB: 2, Ranks: 4,
		Ops: []schedule.Op{
			{Kind: schedule.OpTranspose, Phase: "transpose", Dir: "YtoZ",
				Comm: "A", CommSize: 2, Fields: 6, BytesPerRank: 600, Messages: 1},
			{Kind: schedule.OpTranspose, Phase: "transpose", Dir: "YtoZ",
				Comm: "A", CommSize: 2, Fields: 4, BytesPerRank: 400, Messages: 1},
			{Kind: schedule.OpTranspose, Phase: "transpose", Dir: "ZtoY",
				Comm: "A", CommSize: 2, Fields: 6, BytesPerRank: 600, Messages: 1},
		},
	}
	// 3 executions: YtoZ sees both ops each time, ZtoY one.
	r.Comm = []CommStats{
		{Op: "YtoZ", Calls: 6, Messages: 6, Bytes: 3 * 2 * 1000},
		{Op: "ZtoY", Calls: 3, Messages: 3, Bytes: 3 * 2 * 600},
	}
	r.Flops = 0 // no flop accounting in this fixture
	return r
}

func TestScheduleConsistencyAggregates(t *testing.T) {
	if err := aggregateFixture().CheckScheduleConsistency(); err != nil {
		t.Fatalf("consistent non-uniform schedule rejected: %v", err)
	}

	// Calls not divisible by the per-execution op count: a half-finished
	// direction is an instrumentation bug.
	r := aggregateFixture()
	r.Comm[0].Calls = 7
	if err := r.CheckScheduleConsistency(); err == nil ||
		!strings.Contains(err.Error(), "ops per execution") {
		t.Fatalf("odd call count accepted: %v", err)
	}

	// Byte total off by one op's worth: the aggregate must catch it even
	// though a per-call mean would sit between the two op sizes.
	r = aggregateFixture()
	r.Comm[0].Bytes -= 2 * 400
	if err := r.CheckScheduleConsistency(); err == nil ||
		!strings.Contains(err.Error(), "bytes") {
		t.Fatalf("missing payload accepted: %v", err)
	}

	// Message count mismatch.
	r = aggregateFixture()
	r.Comm[1].Messages = 4
	if err := r.CheckScheduleConsistency(); err == nil ||
		!strings.Contains(err.Error(), "messages") {
		t.Fatalf("message mismatch accepted: %v", err)
	}

	// A comm channel outside the schedule (collectives) is ignored.
	r = aggregateFixture()
	r.Comm = append(r.Comm, CommStats{Op: "allreduce", Calls: 17, Bytes: 999})
	if err := r.CheckScheduleConsistency(); err != nil {
		t.Fatalf("out-of-schedule channel rejected: %v", err)
	}
}
