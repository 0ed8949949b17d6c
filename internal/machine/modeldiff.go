package machine

import (
	"fmt"
	"io"

	"channeldns/internal/schedule"
	"channeldns/internal/telemetry"
)

// Model-vs-measured comparison: the bench-validate -model mode. A live report's
// schedule block is priced under a machine's cost functions (Interpret) and
// the per-phase predictions are set against the report's measured per-phase
// seconds. Absolute agreement is not expected — the model is calibrated to
// the paper's platforms, not the machine the report ran on — so each phase's
// measured/modeled ratio is normalized by the overall ratio, and a phase is
// flagged only when its normalized ratio drifts beyond a tolerance: the
// model and the measurement disagree about the SHAPE of the breakdown, which
// is what catches a phase that regressed (or a model that rotted) even when
// everything got uniformly faster hardware.

// ModelRow is one phase of a model-vs-measured comparison.
type ModelRow struct {
	Phase string
	// MeasuredSeconds is the mean-rank wall clock per schedule execution;
	// ModeledSeconds is the interpreter's prediction for one execution.
	MeasuredSeconds float64
	ModeledSeconds  float64
	// Ratio is measured/modeled; Normalized divides out the run's overall
	// ratio, so 1.0 means "this phase's share matches the model exactly".
	// Both are 0 when either side has no time in the phase.
	Ratio      float64
	Normalized float64
	Flagged    bool
}

// ModelDiff prices rep.Schedule under machine m (rank-per-core placement)
// and compares per-phase measured seconds against the prediction, flagging
// phases whose normalized ratio falls outside [1/tol, tol]. executions is
// the number of times the schedule ran (steps for timestep reports, iters
// for cycle reports); values < 1 are treated as 1. Returns an error when
// the report carries no schedule block.
func ModelDiff(m Machine, rep *telemetry.Report, executions int64, tol float64) ([]ModelRow, error) {
	if rep.Schedule == nil {
		return nil, fmt.Errorf("report %q carries no schedule block", rep.Table)
	}
	if tol <= 1 {
		tol = 3
	}
	if executions < 1 {
		executions = 1
	}
	modeled := Interpret(MPIEnv(m, rep.Schedule), rep.Schedule).Phases

	measured := map[string]float64{}
	for _, p := range rep.Phases {
		measured[p.Phase] = p.MeanRankSeconds / float64(executions)
	}

	// Overall ratio over the phases both sides have time in.
	var sumMeas, sumModel float64
	for ph, t := range modeled {
		if measured[ph] > 0 && t > 0 {
			sumMeas += measured[ph]
			sumModel += t
		}
	}
	overall := 0.0
	if sumModel > 0 {
		overall = sumMeas / sumModel
	}

	var rows []ModelRow
	for _, name := range schedule.PhaseNames {
		meas, mod := measured[name], modeled[name]
		if meas == 0 && mod == 0 {
			continue
		}
		row := ModelRow{Phase: name, MeasuredSeconds: meas, ModeledSeconds: mod}
		if meas > 0 && mod > 0 {
			row.Ratio = meas / mod
			if overall > 0 {
				row.Normalized = row.Ratio / overall
				row.Flagged = row.Normalized > tol || row.Normalized < 1/tol
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteModelDiff renders the comparison as a fixed-width table and returns
// the number of flagged phases.
func WriteModelDiff(w io.Writer, m Machine, rows []ModelRow, executions int64) int {
	fmt.Fprintf(w, "model-vs-measured per schedule execution (%d executions, machine %s, rank-per-core)\n",
		executions, m.Name)
	fmt.Fprintf(w, "%-6s  %-14s  %12s  %12s  %8s  %10s\n",
		"", "phase", "measured", "modeled", "ratio", "normalized")
	flagged := 0
	for _, r := range rows {
		mark := ""
		if r.Flagged {
			mark = "DRIFT"
			flagged++
		}
		ratio := func(v float64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(w, "%-6s  %-14s  %12.3e  %12.3e  %8s  %10s\n",
			mark, r.Phase, r.MeasuredSeconds, r.ModeledSeconds, ratio(r.Ratio), ratio(r.Normalized))
	}
	return flagged
}
