package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"channeldns/internal/telemetry"
)

// Whole-world trace merging. A distributed run writes one Chrome trace
// file per rank, each with timestamps relative to its own process's epoch
// and an estimated clock offset against rank 0 in the file metadata
// (Trace.SetClockSync). ParseChrome reads one such file back into decoded
// events; Merge translates every rank's events onto rank 0's timeline —
// aligned start = (epoch + offset + event start) − rank 0's epoch — and
// produces a single Perfetto file with one track per rank plus flow
// arrows ("s"/"t"/"f" events sharing an id) linking the matched transpose
// exchange windows across ranks, so the eye can follow one alltoallv
// through the world. The aligned per-rank events also feed the existing
// critical-path analyzer (Analyze) a whole-world view.
//
// Alignment caveat: offsets come from RTT ping-pong estimation with error
// bound RTT/2 (mpi.SyncClocks), so cross-rank orderings tighter than the
// bound are not trustworthy — an exchange may appear to end before its
// peer's matching window opens. Within a rank, order is exact.

// RankTrace is one rank's trace file decoded for merging.
type RankTrace struct {
	// Rank and World are the identity stamped at export (satellite of the
	// -listen header); World is 0 for files from undistributed runs.
	Rank, World int
	// EpochUnixNs is the rank's trace epoch on its own wall clock.
	EpochUnixNs int64
	// OffsetNs/ErrorNs are the stamped clock alignment against rank 0.
	OffsetNs, ErrorNs int64
	// Events are the decoded events, starts relative to the rank's epoch.
	Events []Event
}

// MaxWorld bounds the world a trace file may claim, and the rank of a file
// that states none: above the paper's largest run (786 432 cores), and small
// enough that Merge's per-rank tables stay a few tens of MB.
const MaxWorld = 1 << 20

// ParseChrome decodes one rank's exported Chrome trace file back into
// events, inverting the export's name scheme. Files without the
// clock_epoch_unix_ns metadata (pre-distributed-observability exports)
// are rejected: they cannot be placed on a shared timeline, and so are
// files whose world is negative or above MaxWorld, or whose rank is negative
// or not below the world (MaxWorld when none is stamped).
func ParseChrome(raw []byte) (*RankTrace, error) {
	var f chromeFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("trace: parse: %w", err)
	}
	rt := &RankTrace{}
	meta := func(key string) (int64, bool) {
		s, ok := f.OtherData[key]
		if !ok {
			return 0, false
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	epoch, ok := meta("clock_epoch_unix_ns")
	if !ok {
		return nil, fmt.Errorf("trace: file carries no clock_epoch_unix_ns metadata (exported before clock alignment?)")
	}
	rt.EpochUnixNs = epoch
	rank, _ := meta("clock_rank")
	world, _ := meta("clock_world")
	if world < 0 || world > MaxWorld {
		return nil, fmt.Errorf("trace: clock_world %d outside [0, %d]", world, MaxWorld)
	}
	if limit := cmp.Or(world, MaxWorld); rank < 0 || rank >= limit {
		return nil, fmt.Errorf("trace: clock_rank %d outside [0, %d)", rank, limit)
	}
	rt.Rank, rt.World = int(rank), int(world)
	rt.OffsetNs, _ = meta("clock_offset_ns")
	rt.ErrorNs, _ = meta("clock_error_ns")

	for i, ce := range f.TraceEvents {
		if ce.Ph != "X" {
			continue // metadata and (in already-merged files) flow events
		}
		ev := Event{
			Start: time.Duration(ce.Ts * 1e3),
			Stage: -1,
			Peer:  -1,
			Step:  ce.Args["step"],
		}
		if ce.Dur != nil {
			ev.Dur = time.Duration(*ce.Dur * 1e3)
		}
		if s, ok := ce.Args["stage"]; ok {
			ev.Stage = int(s)
		}
		switch {
		case ce.Name == "step":
			ev.Kind = KindStep
		case ce.Name == "peer wait":
			ev.Kind = KindPeer
			ev.Peer = int(ce.Args["peer"])
			ev.Bytes = ce.Args["bytes"]
		case strings.HasPrefix(ce.Name, "exchange "):
			op, ok := telemetry.CommOpFromString(strings.TrimPrefix(ce.Name, "exchange "))
			if !ok {
				return nil, fmt.Errorf("trace: event %d: unknown exchange direction %q", i, ce.Name)
			}
			ev.Kind = KindExchange
			ev.Op = op
			ev.Bytes = ce.Args["bytes"]
			if c, ok := ce.Args["chunks"]; ok {
				ev.Peer = int(c)
			}
		default:
			p, ok := telemetry.PhaseFromString(ce.Name)
			if !ok {
				return nil, fmt.Errorf("trace: event %d: unknown event name %q", i, ce.Name)
			}
			ev.Kind = KindPhase
			ev.Phase = p
		}
		rt.Events = append(rt.Events, ev)
	}
	return rt, nil
}

// Merged is a whole-world trace on rank 0's timeline.
type Merged struct {
	// World is the world size; PerRank is indexed by rank, events aligned
	// onto rank 0's timeline — the input shape Analyze takes.
	World   int
	PerRank [][]Event
	// ErrorNs is each rank's clock-alignment error bound.
	ErrorNs []int64
	// FlowArrows counts the emitted cross-rank flow links.
	FlowArrows int

	events []chromeEvent
}

// Merge aligns per-rank traces onto rank 0's timeline and links matched
// transpose exchanges with flow arrows. Every trace must carry a distinct
// rank; worlds, where stamped, must agree.
func Merge(traces []*RankTrace) (*Merged, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: nothing to merge")
	}
	world := 0
	var base int64
	haveBase := false
	byRank := map[int]*RankTrace{}
	for _, rt := range traces {
		if prev := byRank[rt.Rank]; prev != nil {
			return nil, fmt.Errorf("trace: two files claim rank %d", rt.Rank)
		}
		byRank[rt.Rank] = rt
		if rt.World > 0 {
			if world > 0 && world != rt.World {
				return nil, fmt.Errorf("trace: files from different worlds (%d and %d ranks)", world, rt.World)
			}
			world = rt.World
		}
		if rt.Rank >= world {
			world = rt.Rank + 1
		}
		if rt.Rank == 0 {
			base = rt.EpochUnixNs
			haveBase = true
		}
	}
	if !haveBase {
		// No rank 0 file: anchor on the earliest aligned epoch instead.
		for _, rt := range traces {
			if e := rt.EpochUnixNs + rt.OffsetNs; !haveBase || e < base {
				base, haveBase = e, true
			}
		}
	}

	m := &Merged{World: world, PerRank: make([][]Event, world), ErrorNs: make([]int64, world)}
	for rank, rt := range byRank {
		shift := time.Duration(rt.EpochUnixNs + rt.OffsetNs - base)
		evs := make([]Event, len(rt.Events))
		for i, ev := range rt.Events {
			ev.Start += shift
			evs[i] = ev
		}
		sortEvents(evs)
		m.PerRank[rank] = evs
		m.ErrorNs[rank] = rt.ErrorNs
	}
	m.buildEvents()
	return m, nil
}

// flowKey identifies one schedule-level transpose exchange: all ranks
// execute the same exchange sequence, so the nth exchange of a direction
// within a (step, stage) is the same alltoallv on every rank. (Which
// ranks shared a sub-communicator is not recoverable from the trace, so
// arrows link all ranks that executed the exchange — for CommA/CommB
// splits that is a superset of each sub-communicator's membership.)
type flowKey struct {
	step  int64
	stage int
	op    telemetry.CommOp
	occ   int // occurrence index within the (step, stage, op) triple
}

// buildEvents assembles the merged file's event list: per rank, the
// thread-name metadata record, then the rank's events and its flow
// endpoints interleaved in timestamp order (slices before flow marks on
// ties, so an arrow lands on the slice it annotates).
func (m *Merged) buildEvents() {
	type endpoint struct {
		rank int
		ts   float64 // aligned exchange start, microseconds
		key  flowKey
	}
	groups := map[flowKey][]endpoint{}
	for rank, evs := range m.PerRank {
		occ := map[flowKey]int{}
		for _, ev := range evs {
			if ev.Kind != KindExchange {
				continue
			}
			k := flowKey{step: ev.Step, stage: ev.Stage, op: ev.Op}
			k.occ = occ[k]
			occ[flowKey{step: ev.Step, stage: ev.Stage, op: ev.Op}]++
			groups[k] = append(groups[k], endpoint{rank: rank, ts: micros(int64(ev.Start)), key: k})
		}
	}
	keys := make([]flowKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.step != b.step {
			return a.step < b.step
		}
		if a.stage != b.stage {
			return a.stage < b.stage
		}
		if a.op != b.op {
			return a.op < b.op
		}
		return a.occ < b.occ
	})
	perRankFlows := make([][]chromeEvent, m.World)
	for _, k := range keys {
		eps := groups[k]
		if len(eps) < 2 {
			continue // a single-rank exchange has nothing to link
		}
		sort.Slice(eps, func(i, j int) bool {
			if eps[i].ts != eps[j].ts {
				return eps[i].ts < eps[j].ts
			}
			return eps[i].rank < eps[j].rank
		})
		id := fmt.Sprintf("x-%d-%d-%s-%d", k.step, k.stage, k.op, k.occ)
		for i, ep := range eps {
			ce := chromeEvent{
				Name: "exchange " + k.op.String(),
				Cat:  "flow",
				Ts:   ep.ts,
				Pid:  0,
				Tid:  ep.rank,
				ID:   id,
			}
			switch i {
			case 0:
				ce.Ph = "s"
			case len(eps) - 1:
				ce.Ph = "f"
				ce.BP = "e"
			default:
				ce.Ph = "t"
			}
			perRankFlows[ep.rank] = append(perRankFlows[ep.rank], ce)
		}
		m.FlowArrows++
	}

	m.events = nil
	for rank, evs := range m.PerRank {
		if evs == nil && perRankFlows[rank] == nil {
			continue
		}
		m.events = append(m.events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: rank,
			Args: map[string]int64{"rank": int64(rank)},
		})
		track := make([]chromeEvent, 0, len(evs)+len(perRankFlows[rank]))
		for _, ev := range evs {
			track = append(track, chromeEventOf(rank, ev))
		}
		track = append(track, perRankFlows[rank]...)
		sort.SliceStable(track, func(i, j int) bool {
			if track[i].Ts != track[j].Ts {
				return track[i].Ts < track[j].Ts
			}
			// Slices ("X") before flow marks at the same instant.
			return track[i].Ph == "X" && track[j].Ph != "X"
		})
		m.events = append(m.events, track...)
	}
}

// WriteChrome writes the merged world trace as Chrome trace-event JSON.
func (m *Merged) WriteChrome(w io.Writer) error {
	f := chromeFile{
		TraceEvents:     m.events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"merged_world": strconv.Itoa(m.World),
			"flow_arrows":  strconv.Itoa(m.FlowArrows),
		},
	}
	if f.TraceEvents == nil {
		f.TraceEvents = []chromeEvent{}
	}
	b, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Analyze runs the critical-path analyzer over the merged, aligned
// per-rank events — the whole-world view of per-step gating.
func (m *Merged) Analyze() []StepReport { return Analyze(m.PerRank) }
