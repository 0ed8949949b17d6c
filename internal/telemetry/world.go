package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Live world dashboard. During a distributed run, every rank's collector
// dump (optionally with its wire dump appended) rides a heartbeat gather
// to rank 0 every few steps; rank 0 feeds the payloads into a
// WorldTracker, which keeps per-rank liveness and rate state and renders
// it two ways: Prometheus text exposition on /metrics (scrapeable
// mid-run) and a /status JSON with last-heard staleness, rolling step
// rate and straggler flags — the world-level rank-health view the
// wire-hardening roadmap item needs before failure detection can land.
// The tracker is observation-only: it never touches collectors and costs
// the hot path nothing.

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
	dump            []int64 // latest collector dump
	wire            []int64 // latest wire dump, nil when the run has no wire
}

// WorldTracker accumulates heartbeat observations of a fixed-size world.
// All methods are safe for concurrent use (HTTP handlers read while the
// run loop observes).
type WorldTracker struct {
	mu    sync.Mutex
	ranks []worldRank
}

// NewWorldTracker returns a tracker for a world of the given size.
func NewWorldTracker(world int) *WorldTracker {
	if world < 1 {
		world = 1
	}
	return &WorldTracker{ranks: make([]worldRank, world)}
}

func (t *WorldTracker) lock()   { t.mu.Lock() }
func (t *WorldTracker) unlock() { t.mu.Unlock() }

// World returns the tracked world size.
func (t *WorldTracker) World() int { return len(t.ranks) }

// ObserveDump records one rank's heartbeat payload — a collector dump,
// or a collector dump with the rank's wire dump appended (the split is
// by length; heartbeats are uniform in shape within a run) — heard at
// the given wall-clock time.
func (t *WorldTracker) ObserveDump(rank int, payload []int64, heardUnixNs int64) error {
	if rank < 0 || rank >= len(t.ranks) {
		return fmt.Errorf("telemetry: heartbeat from rank %d of world %d", rank, len(t.ranks))
	}
	base := DumpLen()
	var dump, wire []int64
	switch len(payload) {
	case base:
		dump = payload
	case base + WireDumpLen(len(t.ranks)):
		dump, wire = payload[:base], payload[base:]
	default:
		return fmt.Errorf("telemetry: heartbeat payload of %d values, want %d or %d",
			len(payload), base, base+WireDumpLen(len(t.ranks)))
	}
	v, _ := ViewDump(dump)
	steps, stepNs := v.Steps(), v.StepNs()
	t.lock()
	defer t.unlock()
	r := &t.ranks[rank]
	if d := steps - r.steps; r.seen && d > 0 {
		r.rollingStepNs = float64(stepNs-r.stepNs) / float64(d)
	}
	r.seen = true
	r.lastHeardUnixNs = heardUnixNs
	r.steps = steps
	r.stepNs = stepNs
	r.dump = append(r.dump[:0], dump...)
	if wire != nil {
		r.wire = append(r.wire[:0], wire...)
	}
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
	t.lock()
	defer t.unlock()
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

	// Per-phase and per-channel counters straight out of the latest dumps.
	t.lock()
	phases := make([][]int64, len(t.ranks)) // [rank][phase] ns
	comms := make([][][3]int64, len(t.ranks))
	wires := make([][]int64, len(t.ranks))
	for i := range t.ranks {
		r := &t.ranks[i]
		if !r.seen {
			continue
		}
		if v, ok := ViewDump(r.dump); ok {
			pns := make([]int64, NumPhases)
			for p := Phase(0); p < NumPhases; p++ {
				pns[p] = v.PhaseNs(p)
			}
			phases[i] = pns
			cts := make([][3]int64, NumCommOps)
			for op := CommOp(0); op < NumCommOps; op++ {
				calls, msgs, bytes := v.CommCounts(op)
				cts[op] = [3]int64{calls, msgs, bytes}
			}
			comms[i] = cts
		}
		if r.wire != nil {
			wires[i] = append([]int64(nil), r.wire...)
		}
	}
	t.unlock()

	pw.Family("channeldns_rank_phase_seconds_total", "Accumulated wall clock per phase per rank.", "counter")
	for rank, pns := range phases {
		for p := Phase(0); p < NumPhases; p++ {
			if pns == nil || pns[p] == 0 {
				continue
			}
			pw.Sample(float64(pns[p])/1e9, "rank", strconv.Itoa(rank), "phase", p.String())
		}
	}
	pw.Family("channeldns_rank_comm_bytes_total", "Payload bytes per communication channel per rank.", "counter")
	for rank, cts := range comms {
		for op := CommOp(0); op < NumCommOps; op++ {
			if cts == nil || cts[op][2] == 0 {
				continue
			}
			pw.Sample(cts[op][2], "rank", strconv.Itoa(rank), "op", op.String())
		}
	}

	anyWire := false
	for _, wd := range wires {
		if wd != nil {
			anyWire = true
		}
	}
	if anyWire {
		world := len(t.ranks)
		sum := func(wd []int64, field int) int64 {
			var s int64
			for p := 0; p < world; p++ {
				s += wd[1+p*WirePeerDumpLen+field]
			}
			return s
		}
		emit := func(name, help string, field int) {
			pw.Family(name, help, "counter")
			for rank, wd := range wires {
				if wd != nil {
					pw.Sample(sum(wd, field), "rank", strconv.Itoa(rank))
				}
			}
		}
		emit("channeldns_rank_wire_frames_out_total", "Wire frames enqueued toward peers.", WireFramesOut)
		emit("channeldns_rank_wire_bytes_out_total", "Wire bytes (frames incl. headers) enqueued toward peers.", WireBytesOut)
		emit("channeldns_rank_wire_frames_in_total", "Wire frames decoded from peers.", WireFramesIn)
		emit("channeldns_rank_wire_bytes_in_total", "Wire bytes decoded from peers.", WireBytesIn)
	}
}

// observedRanks returns the ranks heard from so far, ascending (tests).
func (t *WorldTracker) observedRanks() []int {
	t.lock()
	defer t.unlock()
	var out []int
	for i := range t.ranks {
		if t.ranks[i].seen {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
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
