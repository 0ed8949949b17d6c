package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// heartbeatDump hand-builds a collector dump with the given step totals
// plus one phase and one comm channel populated, using the dump layout
// arithmetic.
func heartbeatDump(steps, stepNs int64, phase Phase, phaseNs int64, op CommOp, bytes int64) []int64 {
	d := make([]int64, DumpLen())
	d[int(phase)*phaseDumpLen] = phaseNs
	d[int(phase)*phaseDumpLen+1] = 1
	base := commDumpBase + int(op)*3
	d[base], d[base+1], d[base+2] = 1, 2, bytes
	d[stepDumpBase+1], d[stepDumpBase+2] = steps, stepNs
	return d
}

// observedRanks returns the ranks heard from so far, ascending.
func (t *WorldTracker) observedRanks() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for i := range t.ranks {
		if t.ranks[i].seen {
			out = append(out, i)
		}
	}
	return out
}

// newTracker returns a tracker over a fresh registry of its own.
func newTracker(world int) *WorldTracker { return NewWorldTracker(world, NewRegistry()) }

// observe folds a rank's dump into the tracker's registry, as rank 0 does
// with a remote rank's heartbeat frame, and stamps its arrival.
func observe(t *testing.T, tr *WorldTracker, rank int, steps, stepNs, heard int64) {
	t.Helper()
	observeDump(t, tr, rank, heartbeatDump(steps, stepNs, PhaseNonlinear, stepNs/2, CommYtoZ, 1<<20), heard)
}

func observeDump(t *testing.T, tr *WorldTracker, rank int, dump []int64, heard int64) {
	t.Helper()
	if err := tr.reg.RestoreRank(rank, dump); err != nil {
		t.Fatalf("fold rank %d: %v", rank, err)
	}
	if err := tr.Observe(rank, heard); err != nil {
		t.Fatalf("observe rank %d: %v", rank, err)
	}
}

func TestWorldTrackerRollingAndStatus(t *testing.T) {
	tr := newTracker(3)
	now := int64(1e15)
	observe(t, tr, 0, 10, 1e9, now)
	observe(t, tr, 0, 20, 2e9, now+5e9) // +10 steps in +1e9 ns → 0.1 s/step
	observe(t, tr, 1, 5, 5e8, now)

	st := tr.Status(now + 6e9)
	if st.World != 3 || len(st.Ranks) != 3 {
		t.Fatalf("status world %d (%d rows)", st.World, len(st.Ranks))
	}
	r0 := st.Ranks[0]
	if !r0.Heard || r0.Steps != 20 || r0.RollingStepSeconds != 0.1 {
		t.Errorf("rank 0 status %+v, want heard, 20 steps, rolling 0.1s", r0)
	}
	if r0.LastHeardSeconds != 1 {
		t.Errorf("rank 0 staleness %g, want 1s", r0.LastHeardSeconds)
	}
	r1 := st.Ranks[1]
	if !r1.Heard || r1.RollingStepSeconds != 0 || r1.LastHeardSeconds != 6 {
		t.Errorf("rank 1 status %+v, want heard, no rolling rate yet, 6s stale", r1)
	}
	if st.Ranks[2].Heard {
		t.Error("rank 2 marked heard without a heartbeat")
	}
	// A single rolling sample cannot be a straggler relative to itself.
	for _, r := range st.Ranks {
		if r.Straggler {
			t.Errorf("rank %d flagged straggler with one rolling sample in the world", r.Rank)
		}
	}
	if got := tr.observedRanks(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("observed ranks %v, want [0 1]", got)
	}
}

func TestWorldTrackerStragglerFlag(t *testing.T) {
	tr := newTracker(3)
	now := int64(1e15)
	// Rolling step times 0.1s, 0.1s, 0.3s: mean 0.1667s, threshold 0.2s.
	for rank, rolling := range []int64{1e8, 1e8, 3e8} {
		observe(t, tr, rank, 10, 10*rolling, now)
		observe(t, tr, rank, 20, 20*rolling, now+1)
	}
	st := tr.Status(now + 2)
	for rank, want := range []bool{false, false, true} {
		if st.Ranks[rank].Straggler != want {
			t.Errorf("rank %d straggler=%v, want %v", rank, st.Ranks[rank].Straggler, want)
		}
	}
}

func TestWorldTrackerRejectsBadObservations(t *testing.T) {
	tr := newTracker(2)
	if err := tr.Observe(2, 1); err == nil {
		t.Error("rank outside the world accepted")
	}
}

func TestWorldTrackerMetricsOutput(t *testing.T) {
	tr := newTracker(2)
	now := int64(1e15)
	observe(t, tr, 0, 10, 1e9, now)
	observe(t, tr, 0, 20, 2e9, now+1e9)

	// Rank 1 heartbeats with wire counters, as a TCP run's ranks do.
	observeDump(t, tr, 1, heartbeatDump(15, 3e9, PhaseNonlinear, 1e9, CommYtoZ, 1<<20), now+1e9)
	tr.reg.SetWire(&WireSummary{Transport: "tcp", Ranks: []WireRankStats{{
		Rank: 1, FramesOut: 7, BytesOut: 900, PayloadOut: 753, FramesIn: 6, BytesIn: 800, PayloadIn: 674,
	}}})

	var sb strings.Builder
	tr.WriteMetrics(&sb, now+2e9)
	if got := sb.String(); got != worldMetricsGolden {
		t.Errorf("metrics output changed:\n%s\nwant:\n%s", got, worldMetricsGolden)
	}
}

func TestWorldHandlers(t *testing.T) {
	tr := newTracker(2)
	observe(t, tr, 0, 4, 4e8, 1)

	rec := httptest.NewRecorder()
	MetricsHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "channeldns_world_size 2") {
		t.Errorf("/metrics: code %d body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	StatusHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("/status code %d", rec.Code)
	}
	var st WorldStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	if st.World != 2 || !st.Ranks[0].Heard || st.Ranks[1].Heard {
		t.Errorf("/status document %+v", st)
	}
}

// worldMetricsGolden is WriteMetrics for the world above, byte for byte.
const worldMetricsGolden = `# HELP channeldns_world_size Number of ranks in the running world.
# TYPE channeldns_world_size gauge
channeldns_world_size 2
# HELP channeldns_rank_last_heard_seconds Staleness of each rank's newest heartbeat.
# TYPE channeldns_rank_last_heard_seconds gauge
channeldns_rank_last_heard_seconds{rank="0"} 1
channeldns_rank_last_heard_seconds{rank="1"} 1
# HELP channeldns_rank_steps_total Completed timesteps per rank.
# TYPE channeldns_rank_steps_total counter
channeldns_rank_steps_total{rank="0"} 20
channeldns_rank_steps_total{rank="1"} 15
# HELP channeldns_rank_step_seconds_total Accumulated step wall clock per rank.
# TYPE channeldns_rank_step_seconds_total counter
channeldns_rank_step_seconds_total{rank="0"} 2
channeldns_rank_step_seconds_total{rank="1"} 3
# HELP channeldns_rank_step_seconds_rolling Mean step time between the two newest heartbeats.
# TYPE channeldns_rank_step_seconds_rolling gauge
channeldns_rank_step_seconds_rolling{rank="0"} 0.1
channeldns_rank_step_seconds_rolling{rank="1"} 0
# HELP channeldns_rank_straggler 1 when the rank's rolling step time exceeds the cross-rank mean by the straggler factor.
# TYPE channeldns_rank_straggler gauge
channeldns_rank_straggler{rank="0"} 0
channeldns_rank_straggler{rank="1"} 0
# HELP channeldns_rank_phase_seconds_total Accumulated wall clock per phase per rank.
# TYPE channeldns_rank_phase_seconds_total counter
channeldns_rank_phase_seconds_total{rank="0",phase="nonlinear"} 1
channeldns_rank_phase_seconds_total{rank="1",phase="nonlinear"} 1
# HELP channeldns_rank_comm_bytes_total Payload bytes per communication channel per rank.
# TYPE channeldns_rank_comm_bytes_total counter
channeldns_rank_comm_bytes_total{rank="0",op="YtoZ"} 1048576
channeldns_rank_comm_bytes_total{rank="1",op="YtoZ"} 1048576
# HELP channeldns_rank_wire_frames_out_total Wire frames enqueued toward peers.
# TYPE channeldns_rank_wire_frames_out_total counter
channeldns_rank_wire_frames_out_total{rank="1"} 7
# HELP channeldns_rank_wire_bytes_out_total Wire bytes (frames incl. headers) enqueued toward peers.
# TYPE channeldns_rank_wire_bytes_out_total counter
channeldns_rank_wire_bytes_out_total{rank="1"} 900
# HELP channeldns_rank_wire_frames_in_total Wire frames decoded from peers.
# TYPE channeldns_rank_wire_frames_in_total counter
channeldns_rank_wire_frames_in_total{rank="1"} 6
# HELP channeldns_rank_wire_bytes_in_total Wire bytes decoded from peers.
# TYPE channeldns_rank_wire_bytes_in_total counter
channeldns_rank_wire_bytes_in_total{rank="1"} 800
`
