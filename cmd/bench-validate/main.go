// Command bench-validate checks BENCH_*.json telemetry reports against the
// channeldns/bench/v2 schema: strict field parsing, phase-name and ordering
// invariants, and sane comm/metric accounting. Reports carry per-phase
// totals and their imbalance; per-span latencies are in the trace files. With -trace it instead
// validates Chrome trace-event files (valid JSON, >0 events, monotone
// timestamps per track). The bench-smoke CI target runs it over every
// artifact cmd/bench and cmd/dns emit.
//
// With -model each valid report's measured per-phase seconds are also
// compared against the machine model's prediction for the report's schedule
// block, normalized by the overall measured/modeled ratio (the model is
// calibrated to the paper's platforms, not this machine, so only the shape
// of the breakdown is judged). Drifting phases are printed as warnings and
// never fail the run; a report without a schedule block does.
//
// Exit status is non-zero if any file fails, so it composes with make.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"channeldns/internal/machine"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

func main() {
	quiet := flag.Bool("q", false, "print only failures")
	traceMode := flag.Bool("trace", false, "validate Chrome trace-event files instead of BENCH reports")
	model := flag.Bool("model", false, "also compare each report's measured phases against the machine model of its schedule block (advisory)")
	machineName := flag.String("machine", "Mira", "platform for -model (Mira, Lonestar, Stampede, BlueWaters)")
	modelTol := flag.Float64("model-tol", 3, "-model: flag phases whose normalized measured/modeled ratio drifts beyond this factor")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench-validate [-q] [-trace | -model [-machine M] [-model-tol T]] file.json ...")
		os.Exit(2)
	}
	m, ok := machine.ByName(*machineName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench-validate: unknown machine %q\n", *machineName)
		os.Exit(2)
	}
	failed := 0
	for _, path := range flag.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			failed++
			continue
		}
		var summary string
		if *traceMode {
			summary, err = checkTrace(raw)
		} else {
			summary, err = checkReport(raw, *model, m, *modelTol)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: INVALID: %v\n", path, err)
			failed++
		} else if !*quiet {
			fmt.Printf("%s: ok (%s)\n", path, summary)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d reports invalid\n", failed, flag.NArg())
		os.Exit(1)
	}
}

func checkTrace(raw []byte) (string, error) {
	n, err := trace.ValidateChrome(raw)
	return fmt.Sprintf("%d events", n), err
}

func checkReport(raw []byte, model bool, m machine.Machine, tol float64) (string, error) {
	r, err := telemetry.ValidateJSON(raw)
	if err != nil {
		return "", err
	}
	// Reports carrying a schedule block must agree with their own comm
	// table: 2x bytes_per_rank per transpose call, CommSize-1 messages,
	// and (for timestep runs) schedule-derived flop totals.
	if err := r.CheckScheduleConsistency(); err != nil {
		return "", err
	}
	// Runs that did checkpoint I/O must account for it coherently:
	// phase spans and comm byte records in 1:1 correspondence.
	if err := r.CheckCheckpointIO(); err != nil {
		return "", err
	}
	if model {
		if err := printModel(r, m, tol); err != nil {
			return "", err
		}
	}
	sched := 0
	if r.Schedule != nil {
		sched = len(r.Schedule.Ops)
	}
	return fmt.Sprintf("table=%s ranks=%d phases=%d comm=%d metrics=%d schedule_ops=%d",
		r.Table, r.Ranks, len(r.Phases), len(r.Comm), len(r.Metrics), sched), nil
}

// printModel prints the model-vs-measured table of one report and its
// advisory verdict line.
func printModel(rep *telemetry.Report, m machine.Machine, tol float64) error {
	execs := rep.Steps
	if execs == 0 {
		// Cycle reports (table5/table6) record no steps; the iteration count
		// rides in the config fingerprint.
		if n, err := strconv.ParseInt(rep.Config["iters"], 10, 64); err == nil {
			execs = n
		}
	}
	rows, err := machine.ModelDiff(m, rep, execs, tol)
	if err != nil {
		return err
	}
	flagged := machine.WriteModelDiff(os.Stdout, m, rows, max(1, execs))
	if flagged > 0 {
		fmt.Printf("verdict: warn (%d phase(s) drift beyond %.1fx of the overall ratio)\n", flagged, tol)
	} else {
		fmt.Println("verdict: pass")
	}
	return nil
}
