package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"channeldns/internal/telemetry"
)

// Critical-path analysis: in a bulk-synchronous step the slowest rank sets
// the wall clock, so "why is the step this long" reduces to "which rank
// was busiest, and on what". Analyze answers both per step from the
// recorded phase events — the diagnosis behind the paper's CommA/CommB
// transpose-imbalance discussion, computed instead of eyeballed.

// StepReport is the critical path of one step across ranks.
type StepReport struct {
	Step int64
	// BusySeconds is each rank's total phase time inside the step (index =
	// rank). Phases tile the instrumented step, so this is the rank's
	// working wall clock.
	BusySeconds []float64
	// SlackSeconds is the gating rank's busy time minus each rank's: how
	// long each rank would have idled at a step-end barrier. Zero for the
	// gating rank by construction.
	SlackSeconds []float64
	// GatingRank is the busiest rank — the one the step waited for.
	GatingRank int
	// GatingPhase is the phase on which the gating rank lost the most time
	// relative to the cross-rank mean of that phase: the best single-phase
	// explanation of the imbalance.
	GatingPhase telemetry.Phase
	// GatingSeconds is the gating rank's busy time.
	GatingSeconds float64
	// ExposedWireSeconds is the wire time the step's ranks waited on,
	// summed across ranks: the transposes' exchange windows (KindExchange).
	// The per-peer waits (KindPeer) lie inside those windows and are not
	// counted again.
	ExposedWireSeconds float64
}

// Analyze computes per-step critical paths from a per-rank event snapshot
// (as returned by Trace.Events). Steps with no phase events on any rank
// are omitted; reports come back ascending by step. Ranks with a nil
// event slice (never registered) count as zero-busy.
func Analyze(perRank [][]Event) []StepReport {
	ranks := len(perRank)
	if ranks == 0 {
		return nil
	}
	// busy[step][rank] and phase[step][rank][phase], accumulated in
	// nanoseconds to keep summation exact.
	type acc struct {
		busy  []int64
		phase [][telemetry.NumPhases]int64
		wire  int64 // exchange windows, summed across ranks
	}
	steps := map[int64]*acc{}
	get := func(step int64) *acc {
		a := steps[step]
		if a == nil {
			a = &acc{
				busy:  make([]int64, ranks),
				phase: make([][telemetry.NumPhases]int64, ranks),
			}
			steps[step] = a
		}
		return a
	}
	for rank, evs := range perRank {
		for _, ev := range evs {
			switch ev.Kind {
			case KindPhase:
				if ev.Phase >= telemetry.NumPhases {
					continue
				}
				a := get(ev.Step)
				a.busy[rank] += int64(ev.Dur)
				a.phase[rank][ev.Phase] += int64(ev.Dur)
			case KindExchange:
				get(ev.Step).wire += int64(ev.Dur)
			}
		}
	}
	order := make([]int64, 0, len(steps))
	for s := range steps {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	out := make([]StepReport, 0, len(order))
	for _, s := range order {
		a := steps[s]
		gating := 0
		for r := 1; r < ranks; r++ {
			if a.busy[r] > a.busy[gating] {
				gating = r
			}
		}
		rep := StepReport{
			Step:               s,
			BusySeconds:        make([]float64, ranks),
			SlackSeconds:       make([]float64, ranks),
			GatingRank:         gating,
			GatingSeconds:      time.Duration(a.busy[gating]).Seconds(),
			ExposedWireSeconds: time.Duration(a.wire).Seconds(),
		}
		for r := 0; r < ranks; r++ {
			rep.BusySeconds[r] = time.Duration(a.busy[r]).Seconds()
			rep.SlackSeconds[r] = time.Duration(a.busy[gating] - a.busy[r]).Seconds()
		}
		// Gating phase: where the gating rank stands furthest above the
		// cross-rank mean. Ties break to the longer absolute duration, then
		// the lower phase index, so the choice is deterministic.
		var (
			bestExcess = int64(-1 << 62)
			bestDur    int64
			bestPhase  telemetry.Phase
		)
		for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
			dur := a.phase[gating][p]
			if dur == 0 {
				continue
			}
			var sum int64
			for r := 0; r < ranks; r++ {
				sum += a.phase[r][p]
			}
			excess := dur - sum/int64(ranks)
			if excess > bestExcess || (excess == bestExcess && dur > bestDur) {
				bestExcess, bestDur, bestPhase = excess, dur, p
			}
		}
		rep.GatingPhase = bestPhase
		out = append(out, rep)
	}
	return out
}

// Summarize condenses a trace into the Report digest: the straggler record
// of every step plus each rank's accumulated slack.
func Summarize(t *Trace) *telemetry.TraceSummary {
	if t == nil {
		return nil
	}
	perRank := t.Events()
	reports := Analyze(perRank)
	sum := &telemetry.TraceSummary{
		Dropped: t.Dropped(),
		Steps:   make([]telemetry.StragglerStep, 0, len(reports)),
	}
	for _, evs := range perRank {
		sum.Events += int64(len(evs))
	}
	if len(reports) > 0 {
		sum.RankSlackSeconds = make([]float64, len(reports[0].SlackSeconds))
	}
	for _, rep := range reports {
		maxSlack := 0.0
		for r, sl := range rep.SlackSeconds {
			sum.RankSlackSeconds[r] += sl
			if sl > maxSlack {
				maxSlack = sl
			}
		}
		sum.Steps = append(sum.Steps, telemetry.StragglerStep{
			Step:               rep.Step,
			GatingRank:         rep.GatingRank,
			GatingPhase:        rep.GatingPhase.String(),
			GatingSeconds:      rep.GatingSeconds,
			MaxSlackSeconds:    maxSlack,
			ExposedWireSeconds: rep.ExposedWireSeconds,
		})
	}
	return sum
}

// WriteStragglerTable renders per-step critical paths as the fixed-width
// table cmd/dns prints at the end of a traced run.
func WriteStragglerTable(w io.Writer, reports []StepReport) {
	if len(reports) == 0 {
		fmt.Fprintln(w, "trace: no steps recorded")
		return
	}
	fmt.Fprintf(w, "%6s  %5s  %-14s  %12s  %14s  %12s\n",
		"step", "rank", "gating phase", "busy [ms]", "max slack [ms]",
		"exposed [ms]")
	for _, rep := range reports {
		maxSlack := 0.0
		for _, sl := range rep.SlackSeconds {
			if sl > maxSlack {
				maxSlack = sl
			}
		}
		fmt.Fprintf(w, "%6d  %5d  %-14s  %12.3f  %14.3f  %12.3f\n",
			rep.Step, rep.GatingRank, rep.GatingPhase.String(),
			rep.GatingSeconds*1e3, maxSlack*1e3,
			rep.ExposedWireSeconds*1e3)
	}
}
