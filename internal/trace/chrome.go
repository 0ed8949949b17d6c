package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"

	"channeldns/internal/telemetry"
)

// Chrome trace-event export: the flight recorder serialized to the JSON
// Object Format consumed by chrome://tracing and Perfetto. Every rank is
// one named track (pid 0, tid = rank); phase spans, exchange windows,
// peer exchanges and whole steps are complete ("X") events that nest by
// containment, so a transpose span visually contains its wire interval,
// which contains the per-peer waits. In a trace of two or more ranks, flow
// arrows ("s"/"t"/"f" events sharing an id) link the matched transpose
// exchange windows across ranks, so the eye can follow one alltoallv
// through the world. ts/dur are microseconds from the Trace epoch, the
// format's native unit.

// chromeEvent is one trace-event object. Field order is fixed by the
// struct and args keys are sorted by encoding/json, so the same snapshot
// always encodes to the same bytes.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat,omitempty"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  *float64         `json:"dur,omitempty"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	ID   string           `json:"id,omitempty"` // flow events ("s"/"t"/"f") only
	BP   string           `json:"bp,omitempty"` // "e" on "f" binds to the enclosing slice
	Args map[string]int64 `json:"args,omitempty"`
}

// chromeFile is the containing JSON object. OtherData carries file-level
// metadata as decimal strings: the trace epoch on the writer's wall clock.
type chromeFile struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// micros converts a nanosecond duration to the format's microsecond unit.
func micros(ns int64) float64 { return float64(ns) / 1e3 }

// chromeEvents flattens a snapshot into trace-event objects: per rank, the
// thread_name metadata record, then the rank's events in start order with
// its flow endpoints interleaved (slices before flow marks on ties, so an
// arrow lands on the slice it annotates).
func chromeEvents(perRank [][]Event) []chromeEvent {
	flows := flowEvents(perRank)
	var out []chromeEvent
	for rank, evs := range perRank {
		if evs == nil {
			continue
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: rank,
			Args: map[string]int64{"rank": int64(rank)},
		})
		track := make([]chromeEvent, 0, len(evs)+len(flows[rank]))
		for _, ev := range evs {
			track = append(track, chromeEventOf(rank, ev))
		}
		if len(flows[rank]) > 0 {
			track = append(track, flows[rank]...)
			sort.SliceStable(track, func(i, j int) bool {
				if track[i].Ts != track[j].Ts {
					return track[i].Ts < track[j].Ts
				}
				return track[i].Ph == "X" && track[j].Ph != "X"
			})
		}
		out = append(out, track...)
	}
	return out
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

// flowEvents links every exchange executed by two or more ranks with one
// flow arrow — "s" on the earliest start, "t" through the middle, "f" on
// the latest — and returns each rank's endpoints, indexed like perRank.
func flowEvents(perRank [][]Event) [][]chromeEvent {
	type endpoint struct {
		rank int
		ts   float64 // exchange start, microseconds
	}
	groups := map[flowKey][]endpoint{}
	for rank, evs := range perRank {
		occ := map[flowKey]int{}
		for _, ev := range evs {
			if ev.Kind != KindExchange {
				continue
			}
			k := flowKey{step: ev.Step, stage: ev.Stage, op: ev.Op}
			k.occ = occ[k]
			occ[flowKey{step: ev.Step, stage: ev.Stage, op: ev.Op}]++
			groups[k] = append(groups[k], endpoint{rank: rank, ts: micros(int64(ev.Start))})
		}
	}
	keys := make([]flowKey, 0, len(groups))
	for k, eps := range groups {
		if len(eps) >= 2 { // a single-rank exchange has nothing to link
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b flowKey) int {
		return cmp.Or(cmp.Compare(a.step, b.step), cmp.Compare(a.stage, b.stage),
			cmp.Compare(a.op, b.op), cmp.Compare(a.occ, b.occ))
	})
	flows := make([][]chromeEvent, len(perRank))
	for _, k := range keys {
		eps := groups[k]
		slices.SortFunc(eps, func(a, b endpoint) int {
			return cmp.Or(cmp.Compare(a.ts, b.ts), cmp.Compare(a.rank, b.rank))
		})
		id := fmt.Sprintf("x-%d-%d-%s-%d", k.step, k.stage, k.op, k.occ)
		for i, ep := range eps {
			ce := chromeEvent{Name: "exchange " + k.op.String(), Cat: "flow", Ph: "t", Ts: ep.ts, Tid: ep.rank, ID: id}
			switch i {
			case 0:
				ce.Ph = "s"
			case len(eps) - 1:
				ce.Ph, ce.BP = "f", "e"
			}
			flows[ep.rank] = append(flows[ep.rank], ce)
		}
	}
	return flows
}

// chromeEventOf converts one decoded event to its trace-event object on
// rank's track, named by kind: the phase name, "exchange <dir>", "peer
// wait" or "step".
func chromeEventOf(rank int, ev Event) chromeEvent {
	ce := chromeEvent{
		Ph:  "X",
		Ts:  micros(int64(ev.Start)),
		Pid: 0,
		Tid: rank,
		Cat: ev.Kind.String(),
	}
	dur := micros(int64(ev.Dur))
	ce.Dur = &dur
	args := map[string]int64{"step": ev.Step}
	if ev.Stage >= 0 {
		args["stage"] = int64(ev.Stage)
	}
	switch ev.Kind {
	case KindPhase:
		ce.Name = ev.Phase.String()
	case KindExchange:
		ce.Name = "exchange " + ev.Op.String()
		args["bytes"] = ev.Bytes
	case KindPeer:
		ce.Name = "peer wait"
		args["peer"] = int64(ev.Peer)
		args["bytes"] = ev.Bytes
	case KindStep:
		ce.Name = "step"
	default:
		ce.Name = "unknown"
	}
	ce.Args = args
	return ce
}

// WriteChrome writes the current snapshot as Chrome trace-event JSON —
// open the result in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (t *Trace) WriteChrome(w io.Writer) error {
	f := chromeFile{
		TraceEvents:     chromeEvents(t.Events()),
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"clock_epoch_unix_ns": strconv.FormatInt(t.epoch.UnixNano(), 10),
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

// WriteChromeFile writes the Chrome trace to path, creating parent
// directories as needed.
func (t *Trace) WriteChromeFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Handler returns an http.Handler serving the live Chrome trace — the
// /trace endpoint next to /telemetry in cmd/dns. Snapshots are taken per
// request and never block recording.
func Handler(t *Trace) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := t.WriteChrome(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// ValidateChrome checks a serialized Chrome trace the way the bench-smoke
// and obs-smoke CI targets need: it parses, carries at least one
// non-metadata event, durations are non-negative, and timestamps are
// monotone non-decreasing within each (pid, tid) track in file order.
// Flow events ("s"/"t"/"f", which link matched transpose exchanges across
// ranks) must carry an id, participate in the
// per-track monotone check, and be referentially intact: every id has
// exactly one start, at least one finish, and no step/finish earlier than
// its start. Returns the number of non-metadata events.
func ValidateChrome(raw []byte) (int, error) {
	var f chromeFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return 0, fmt.Errorf("trace: parse: %w", err)
	}
	type track struct{ pid, tid int }
	type flow struct {
		starts, finishes int
		startTs, minTs   float64
	}
	last := map[track]float64{}
	flows := map[string]*flow{}
	events := 0
	for i, ev := range f.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		switch ev.Ph {
		case "X":
		case "s", "t", "f":
			if ev.ID == "" {
				return 0, fmt.Errorf("trace: event %d (%s): flow event without id", i, ev.Name)
			}
			fl := flows[ev.ID]
			if fl == nil {
				fl = &flow{minTs: ev.Ts}
				flows[ev.ID] = fl
			}
			switch ev.Ph {
			case "s":
				fl.starts++
				fl.startTs = ev.Ts
			case "f":
				fl.finishes++
			}
			if ev.Ts < fl.minTs {
				fl.minTs = ev.Ts
			}
		default:
			return 0, fmt.Errorf("trace: event %d: unsupported phase type %q", i, ev.Ph)
		}
		if ev.Name == "" {
			return 0, fmt.Errorf("trace: event %d: empty name", i)
		}
		if ev.Dur != nil && *ev.Dur < 0 {
			return 0, fmt.Errorf("trace: event %d (%s): negative duration %g", i, ev.Name, *ev.Dur)
		}
		tr := track{ev.Pid, ev.Tid}
		if prev, ok := last[tr]; ok && ev.Ts < prev {
			return 0, fmt.Errorf("trace: event %d (%s): timestamp %g precedes %g on track %d/%d",
				i, ev.Name, ev.Ts, prev, ev.Pid, ev.Tid)
		}
		last[tr] = ev.Ts
		events++
	}
	if events == 0 {
		return 0, fmt.Errorf("trace: no events")
	}
	for id, fl := range flows {
		if fl.starts != 1 {
			return 0, fmt.Errorf("trace: flow %q has %d starts (want exactly 1)", id, fl.starts)
		}
		if fl.finishes == 0 {
			return 0, fmt.Errorf("trace: flow %q never finishes", id)
		}
		if fl.minTs < fl.startTs {
			return 0, fmt.Errorf("trace: flow %q has an event at %g before its start at %g", id, fl.minTs, fl.startTs)
		}
	}
	return events, nil
}
