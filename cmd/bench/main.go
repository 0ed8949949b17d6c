// Command bench regenerates the paper's tables and figures, one experiment
// per -table name (the names EXPERIMENTS.md uses):
//
//	1         banded solvers against the reference complex banded routine
//	2 3 4     single-core N-S advance, threading speedup, on-node reordering
//	5         global transpose cycle vs the CommA x CommB split
//	6         parallel FFT cycle, customized kernel vs P3DFFT-style baseline
//	7 8       the benchmark grids of the scaling studies
//	9 10 11   a timestep's strong scaling, weak scaling, MPI vs hybrid
//	fig4      communicator pattern of 128 tasks
//	campaign  cost plan of the ReTau = 5200 production run
//
// An experiment has up to three parts. The model half prints the calibrated
// machine model beside the paper's numbers and is deterministic. The live
// sweep measures on this machine with in-process ranks: on -live, -json or
// -transport, and always where there is no model half (Table 1;
// Tables 2-4, whose measured block sits between title and model; fig4, which
// asks 128 in-process ranks for their communicators). -schedule
// prints the declarative op schedule of the program the live sweep times.
//
// -transport runs Table 5's cycles over chan (in-process mailboxes), tcp
// (loopback sockets, the full serialize/frame path) or both in turn. -json
// writes the BENCH report of the sweep's reference configuration; the
// transport A/B adds the paired .tcp.json sibling.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"channeldns/internal/core"
	"channeldns/internal/machine"
	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
)

// bench is one invocation: the parsed flags and where the tables go.
type bench struct {
	table, jsonPath, tracePath, transport, workload string
	live, schedule                                  bool
	n, reps, nx, ny, nz, steps                      int
	out                                             io.Writer
}

// experiment is one row of the table of experiments. flags names the flags
// besides -table that it reads; any other flag on its command line is an
// error rather than silently ignored.
type experiment struct {
	flags    string
	model    func(w io.Writer)
	live     func(b *bench) error
	schedule func(b *bench) error
}

const (
	tables     = "1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | fig4 | campaign"
	sweepFlags = "live json schedule"
)

var experiments = map[string]experiment{
	"1": {flags: "n reps json", live: solverTable},
	"2": {flags: "json", live: nodeTables},
	"3": {flags: "json", live: nodeTables},
	"4": {flags: "json", live: nodeTables},
	"5": {flags: sweepFlags + " transport", model: model5, live: transposeSweep, schedule: transposeSchedule},
	"6": {flags: sweepFlags, model: model6, live: fftSweep, schedule: fftSchedules},
	"7": {model: modelGrids},
	"8": {model: modelGrids},
	"9": {flags: sweepFlags + " trace nx ny nz steps workload", live: timestepLive, schedule: timestepSchedule,
		model: func(w io.Writer) { timestepTable(w, "Table 9: strong scaling of a timestep", machine.Table9(), false) }},
	"10": {model: func(w io.Writer) { timestepTable(w, "Table 10: weak scaling of a timestep", machine.Table10(), true) }},
	"11": {model: model11},

	"fig4":     {live: figure4},
	"campaign": {model: campaign},
}

// runners start a world of in-process ranks on the named transport.
var runners = map[string]func(int, func(*mpi.Comm)){"chan": mpi.Run, "tcp": mpi.RunTCP}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program on explicit streams; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	b := &bench{out: stdout}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&b.table, "table", "", "experiment: "+tables)
	fs.BoolVar(&b.live, "live", false, "also measure on this machine with in-process ranks")
	fs.BoolVar(&b.schedule, "schedule", false, "print the declarative op schedule of the live program instead")
	fs.StringVar(&b.jsonPath, "json", "", "write the BENCH report of the live measurement here (implies -live on tables 5, 6; -transport=both adds a paired .tcp.json)")
	fs.StringVar(&b.transport, "transport", "chan", "table 5: live transport, chan, tcp, or both in turn (implies -live)")
	fs.StringVar(&b.tracePath, "trace", "", "table 9: also write the -json run's flight recorder as Chrome trace-event JSON here")
	fs.IntVar(&b.n, "n", 1024, "table 1: system size")
	fs.IntVar(&b.reps, "reps", 5, "table 1: repetitions (minimum time kept)")
	fs.IntVar(&b.nx, "nx", 32, "table 9: grid Nx of the -json/-schedule run")
	fs.IntVar(&b.ny, "ny", 33, "table 9: grid Ny of the -json/-schedule run")
	fs.IntVar(&b.nz, "nz", 32, "table 9: grid Nz of the -json/-schedule run")
	fs.IntVar(&b.steps, "steps", 3, "table 9: timed steps of the -json run")
	fs.StringVar(&b.workload, "workload", core.WorkloadChannel, "table 9: workload of the -json/-schedule run: "+strings.Join(core.WorkloadNames(), " | "))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	e, ok := experiments[b.table]
	if !ok || fs.NArg() > 0 {
		return usage("want -table %s", tables)
	}
	stray := ""
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "table" && !strings.Contains(" "+e.flags+" ", " "+f.Name+" ") {
			stray = f.Name
		}
	})
	if stray != "" {
		return usage("-%s does not apply to -table %s (which reads: -table %s)", stray, b.table, e.flags)
	}
	if _, ok := runners[b.transport]; !ok && b.transport != "both" {
		return usage("unknown -transport %q (want chan, tcp, or both)", b.transport)
	}

	var err error
	if b.schedule {
		err = e.schedule(b)
	} else {
		if e.model != nil {
			e.model(stdout)
		}
		if e.model == nil || b.live || b.jsonPath != "" || b.transport != "chan" {
			err = e.live(b)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// writeReport writes rep to the -json path and says so. suffix (".tcp") goes
// before the extension: the paired sibling of the transport A/B.
func (b *bench) writeReport(rep *telemetry.Report, suffix string) error {
	path := b.jsonPath
	if suffix != "" {
		path = strings.TrimSuffix(path, ".json") + suffix + ".json"
	}
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "wrote %s\n", path)
	return nil
}

// writeSweep writes the report of a live sweep's reference configuration
// (nil where kernels were timed whole and the metrics are all there is) with
// the whole sweep's metrics.
func (b *bench) writeSweep(table, suffix string, config map[string]string, metrics map[string]float64, ref *liveResult) error {
	if b.jsonPath == "" {
		return nil
	}
	if ref == nil {
		ref = newLive()
	}
	return b.writeReport(ref.report(table, config, metrics), suffix)
}
