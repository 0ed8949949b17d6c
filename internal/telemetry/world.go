package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Live world dashboard. During a distributed run, rank 0 folds every
// rank's telemetry into its own registry every few steps (internal/run's
// Fold) and stamps each rank's arrival on a WorldTracker, which keeps
// per-rank liveness and rolling step time and renders the world two ways:
// Prometheus text exposition on /metrics (scrapeable mid-run), its
// per-rank phase, comm and wire series read from that registry, and a
// /status JSON with last-heard staleness, rolling step rate and straggler
// flags — the world-level rank-health view the wire-hardening roadmap item
// needs before failure detection can land. The tracker is
// observation-only: it never writes to collectors and costs the hot path
// nothing.

// stragglerFactor flags a rank whose rolling step time exceeds the
// cross-rank mean by this factor.
const stragglerFactor = 1.2

// worldRank is one rank's tracked state.
type worldRank struct {
	seen            bool
	lastHeardUnixNs int64
	steps           int64
	stepNs          int64
	rollingStepNs   float64 // mean step ns over the last observation delta
}

// WorldTracker accumulates heartbeat observations of a fixed-size world
// whose telemetry rank 0 holds in one registry. All methods are safe for
// concurrent use (HTTP handlers read while the run loop observes).
type WorldTracker struct {
	reg   *Registry
	mu    sync.Mutex
	ranks []worldRank
}

// NewWorldTracker returns a tracker for a world of the given size whose
// ranks' collectors and wire block are (or will be folded into) reg.
func NewWorldTracker(world int, reg *Registry) *WorldTracker {
	if world < 1 {
		world = 1
	}
	return &WorldTracker{reg: reg, ranks: make([]worldRank, world)}
}

// World returns the tracked world size.
func (t *WorldTracker) World() int { return len(t.ranks) }

// Observe records a heartbeat from rank heard at the given wall-clock
// time, taking the rank's step counters from its collector in the
// registry (fold it there first).
func (t *WorldTracker) Observe(rank int, heardUnixNs int64) error {
	if rank < 0 || rank >= len(t.ranks) {
		return fmt.Errorf("telemetry: heartbeat from rank %d of world %d", rank, len(t.ranks))
	}
	c := t.reg.Rank(rank)
	steps, stepNs := c.steps.Load(), c.stepNs.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.ranks[rank]
	if d := steps - r.steps; r.seen && d > 0 {
		r.rollingStepNs = float64(stepNs-r.stepNs) / float64(d)
	}
	r.seen = true
	r.lastHeardUnixNs = heardUnixNs
	r.steps = steps
	r.stepNs = stepNs
	return nil
}

// RankStatus is one rank's row in the world status.
type RankStatus struct {
	Rank int `json:"rank"`
	// Heard is false until the first heartbeat from this rank arrives; the
	// remaining fields are zero until then.
	Heard bool `json:"heard"`
	// LastHeardSeconds is the staleness of the newest heartbeat.
	LastHeardSeconds float64 `json:"last_heard_seconds"`
	Steps            int64   `json:"steps"`
	StepSecondsTotal float64 `json:"step_seconds_total"`
	// RollingStepSeconds is the mean step time between the two newest
	// heartbeats (zero until two observations with step progress exist).
	RollingStepSeconds float64 `json:"rolling_step_seconds"`
	// Straggler marks a rank whose rolling step time exceeds the
	// cross-rank mean by more than the straggler factor.
	Straggler bool `json:"straggler"`
}

// WorldStatus is the /status document.
type WorldStatus struct {
	World int          `json:"world"`
	Ranks []RankStatus `json:"ranks"`
	// StragglerFactor restates the flagging threshold for dashboards.
	StragglerFactor float64 `json:"straggler_factor"`
}

// Status assembles the world's health view at the given wall-clock time.
func (t *WorldTracker) Status(nowUnixNs int64) WorldStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := WorldStatus{World: len(t.ranks), Ranks: make([]RankStatus, len(t.ranks)), StragglerFactor: stragglerFactor}
	mean, n := 0.0, 0
	for i := range t.ranks {
		if r := &t.ranks[i]; r.seen && r.rollingStepNs > 0 {
			mean += r.rollingStepNs
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
	}
	for i := range t.ranks {
		r := &t.ranks[i]
		rs := RankStatus{Rank: i, Heard: r.seen}
		if r.seen {
			rs.LastHeardSeconds = float64(nowUnixNs-r.lastHeardUnixNs) / 1e9
			rs.Steps = r.steps
			rs.StepSecondsTotal = float64(r.stepNs) / 1e9
			rs.RollingStepSeconds = r.rollingStepNs / 1e9
			rs.Straggler = n > 1 && r.rollingStepNs > stragglerFactor*mean
		}
		st.Ranks[i] = rs
	}
	return st
}

// rankMetrics are the per-rank series of the health view, in exposition
// order.
var rankMetrics = []struct {
	name, help, typ string
	value           func(RankStatus) any
}{
	{"channeldns_rank_last_heard_seconds", "Staleness of each rank's newest heartbeat.", "gauge",
		func(r RankStatus) any { return r.LastHeardSeconds }},
	{"channeldns_rank_steps_total", "Completed timesteps per rank.", "counter",
		func(r RankStatus) any { return r.Steps }},
	{"channeldns_rank_step_seconds_total", "Accumulated step wall clock per rank.", "counter",
		func(r RankStatus) any { return r.StepSecondsTotal }},
	{"channeldns_rank_step_seconds_rolling", "Mean step time between the two newest heartbeats.", "gauge",
		func(r RankStatus) any { return r.RollingStepSeconds }},
	{"channeldns_rank_straggler", "1 when the rank's rolling step time exceeds the cross-rank mean by the straggler factor.", "gauge",
		func(r RankStatus) any {
			if r.Straggler {
				return 1
			}
			return 0
		}},
}

// WriteMetrics renders the world state in Prometheus text exposition
// format at the given wall-clock time.
func (t *WorldTracker) WriteMetrics(w io.Writer, nowUnixNs int64) {
	st := t.Status(nowUnixNs)
	pw := NewPromWriter(w)
	pw.Family("channeldns_world_size", "Number of ranks in the running world.", "gauge")
	pw.Sample(st.World)
	for _, m := range rankMetrics {
		pw.Family(m.name, m.help, m.typ)
		for _, r := range st.Ranks {
			if r.Heard {
				pw.Sample(m.value(r), "rank", strconv.Itoa(r.Rank))
			}
		}
	}

	// Per-phase and per-channel counters of the heard ranks' collectors.
	var heard []*Collector
	for _, r := range st.Ranks {
		if r.Heard {
			heard = append(heard, t.reg.Rank(r.Rank))
		}
	}
	pw.Family("channeldns_rank_phase_seconds_total", "Accumulated wall clock per phase per rank.", "counter")
	for _, c := range heard {
		for p := Phase(0); p < NumPhases; p++ {
			if ns := c.phases[p].ns.Load(); ns != 0 {
				pw.Sample(float64(ns)/1e9, "rank", strconv.Itoa(c.Rank()), "phase", p.String())
			}
		}
	}
	pw.Family("channeldns_rank_comm_bytes_total", "Payload bytes per communication channel per rank.", "counter")
	for _, c := range heard {
		for op := CommOp(0); op < NumCommOps; op++ {
			if bytes := c.comm[op].bytes.Load(); bytes != 0 {
				pw.Sample(bytes, "rank", strconv.Itoa(c.Rank()), "op", op.String())
			}
		}
	}

	wire := t.reg.Wire()
	if wire == nil {
		return
	}
	emit := func(name, help string, field func(WireRankStats) int64) {
		pw.Family(name, help, "counter")
		for _, row := range wire.Ranks {
			pw.Sample(field(row), "rank", strconv.Itoa(row.Rank))
		}
	}
	emit("channeldns_rank_wire_frames_out_total", "Wire frames enqueued toward peers.",
		func(w WireRankStats) int64 { return w.FramesOut })
	emit("channeldns_rank_wire_bytes_out_total", "Wire bytes (frames incl. headers) enqueued toward peers.",
		func(w WireRankStats) int64 { return w.BytesOut })
	emit("channeldns_rank_wire_frames_in_total", "Wire frames decoded from peers.",
		func(w WireRankStats) int64 { return w.FramesIn })
	emit("channeldns_rank_wire_bytes_in_total", "Wire bytes decoded from peers.",
		func(w WireRankStats) int64 { return w.BytesIn })
}

// MetricsHandler serves the tracker in Prometheus text format.
func MetricsHandler(t *WorldTracker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		t.WriteMetrics(w, time.Now().UnixNano())
	})
}

// StatusHandler serves the /status JSON health view.
func StatusHandler(t *WorldTracker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := t.Status(time.Now().UnixNano())
		b, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		b = append(b, '\n')
		w.Write(b)
	})
}
