package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"channeldns/internal/machine"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/parfft"
	"channeldns/internal/pencil"
	"channeldns/internal/schedule"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// liveResult is one timed configuration of a live sweep: its instruments,
// attached before the run, and what the run filled in.
type liveResult struct {
	reg *telemetry.Registry
	trc *trace.Trace // nil unless traced

	elapsed         time.Duration      // rank 0's wall clock over the timed iterations
	allocs          uint64             // heap objects allocated process-wide meanwhile
	sched           *schedule.Schedule // the program as the ranks executed it
	traceSum        *telemetry.TraceSummary
	exposed, hidden float64 // wire seconds the traced cycles waited on / overlapped, all ranks and steps
}

// cycleBuilder is a rank's part of a live measurement: build the program on
// c, recording through tel and rec (nil unless traced), and return one
// iteration of it and, when the report wants it from here, its schedule.
type cycleBuilder func(c *mpi.Comm, tel *telemetry.Collector, rec *trace.Recorder) (cycle func(it int), sched *schedule.Schedule)

func newLive(traced bool) *liveResult {
	r := &liveResult{reg: telemetry.NewRegistry()}
	if traced {
		r.trc = trace.New(0)
	}
	return r
}

// time is the one live measurement. Every rank of a world started by runner
// builds its cycle; cycle(-1) runs once to warm plans, buffers and streams
// and is dropped from the telemetry; cycle(0..iters-1) run between barriers
// under rank 0's clock and the allocation counter.
func (r *liveResult) time(runner func(int, func(*mpi.Comm)), ranks, iters int, build cycleBuilder) {
	runner(ranks, func(c *mpi.Comm) {
		tel := r.reg.Rank(c.Rank())
		var rec *trace.Recorder
		if r.trc != nil {
			rec = r.trc.Rank(c.Rank())
			tel.SetTracer(rec)
		}
		cycle, sched := build(c, tel, rec)
		cycle(-1)
		c.Barrier()
		tel.Reset() // each rank drops its own warm-up samples
		c.Barrier()
		before := mallocs()
		t0 := time.Now()
		for it := 0; it < iters; it++ {
			cycle(it)
		}
		c.Barrier()
		if c.Rank() == 0 {
			r.elapsed, r.allocs, r.sched = time.Since(t0), mallocs()-before, sched
		}
	})
	if r.trc == nil {
		return
	}
	if r.traceSum = trace.Summarize(r.trc); r.traceSum != nil {
		for _, s := range r.traceSum.Steps {
			r.exposed += s.ExposedWireSeconds
			r.hidden += s.HiddenWireSeconds
		}
	}
}

// report assembles the BENCH report of this configuration: its registry's
// phase and comm tables under the timed wall clock, with the schedule.
func (r *liveResult) report(table string, config map[string]string, metrics map[string]float64) *telemetry.Report {
	rep := telemetry.NewReport(table, r.reg, config)
	rep.WallSeconds, rep.Metrics, rep.Schedule = r.elapsed.Seconds(), metrics, r.sched
	return rep
}

// overlapRow is the pipelined side of an -overlap A/B row: its metrics under
// the row's tag, and its exposed/hidden cells in ms.
func (r *liveResult) overlapRow(metrics map[string]float64, cycleKey, tag string) (exposed, hidden string) {
	metrics[cycleKey+tag] = r.elapsed.Seconds()
	metrics["overlap_exposed_seconds_"+tag] = r.exposed
	metrics["overlap_hidden_seconds_"+tag] = r.hidden
	return fmt.Sprintf("%.3f", r.exposed*1e3), fmt.Sprintf("%.3f", r.hidden*1e3)
}

// Table 5 and Figure 4: the global transposes.

func model5(w io.Writer) {
	tbl := newTable("Table 5: global transpose cycle time vs CommA x CommB split",
		"system", "CommA", "CommB", "model (s)", "paper (s)")
	for _, r := range machine.Table5() {
		tbl.Row(r.System, r.PA, r.PB, r.Model, r.Paper)
	}
	tbl.Write(w)
}

// splits are the CommA x CommB factorizations of the 16 live ranks. The
// reports' phase and comm tables describe the balanced one; the other
// splits' cycle times ride along as metrics.
var splits = [][2]int{{16, 1}, {8, 2}, {4, 4}, {2, 8}, {1, 16}}

const transposeIters = 4

// transposeCycle times the four transposes of one cycle on a pa x pb split
// over preallocated destinations, so the timed loop allocates nothing beyond
// the runtime's per-message copies (nothing at all when pipelined: that path
// sends from preallocated wire arenas). The pipelined entry points are the
// one-shot exchange unless overlap is set; the consumer is nil because the
// transposes are isolated here, so only pack/unpack hides wire time.
func transposeCycle(transport string, pa, pb int, overlap, traced bool) *liveResult {
	res := newLive(traced)
	res.time(runners[transport], pa*pb, transposeIters, func(c *mpi.Comm, tel *telemetry.Collector, rec *trace.Recorder) (func(int), *schedule.Schedule) {
		d := pencil.New(c, pa, pb, 32, 32, 32, par.NewPool(1))
		d.Overlap, d.Telemetry, d.Trace = overlap, tel, rec
		fields := pencil.AllocFields(3, d.YPencilLen())
		zp := pencil.AllocFields(3, d.ZPencilLen(d.NZ))
		xp := pencil.AllocFields(3, d.XPencilLen(d.NZ))
		zp2 := pencil.AllocFields(3, d.ZPencilLen(d.NZ))
		out := pencil.AllocFields(3, d.YPencilLen())
		return func(it int) {
			t0 := time.Now()
			if it >= 0 {
				rec.BeginStep(int64(it))
			}
			d.YtoZPipelined(zp, fields, nil)
			d.ZtoXPipelined(xp, zp, d.NZ, nil)
			d.XtoZPipelined(zp2, xp, d.NZ, nil)
			d.ZtoYPipelined(out, zp2, nil)
			if it >= 0 {
				rec.EndStep(t0, time.Now())
			}
		}, d.CycleSchedule(3)
	})
	return res
}

// transposeSweep times every split on the -transport asked for; "both" is
// the sweep on each transport in turn, paired reports at the -json path and
// its .tcp.json sibling, and the wire cost of each split between them.
func transposeSweep(b *bench) error {
	if b.transport != "both" {
		_, err := transposeOn(b, b.transport, "")
		return err
	}
	onChan, err := transposeOn(b, "chan", "")
	if err != nil {
		return err
	}
	onTCP, err := transposeOn(b, "tcp", ".tcp")
	if err != nil {
		return err
	}
	fmt.Fprint(b.out, "\nwire cost (tcp elapsed / chan elapsed, the price of serializing every transpose message through loopback sockets):")
	for _, s := range splits {
		key := fmt.Sprintf("cycle_seconds_%dx%d", s[0], s[1])
		fmt.Fprintf(b.out, "  %dx%d %.2fx", s[0], s[1], onTCP[key]/onChan[key])
	}
	fmt.Fprintln(b.out)
	return nil
}

// transposeOn is the sweep on one transport; it returns the metrics it
// recorded. An -overlap A/B traces both sides so the timings stay comparable.
func transposeOn(b *bench, transport, suffix string) (map[string]float64, error) {
	fmt.Fprintf(b.out, "\nLive transpose cycle, %s transport (16 ranks, 64x32x32 modes, 3 fields):\n", transport)
	lt := newTable("", "CommA", "CommB", "elapsed", "MB moved/dir", "steady allocs")
	if b.overlap {
		lt = newTable("", "CommA", "CommB", "serial", "pipelined", "ratio", "exposed [ms]", "hidden [ms]", "steady allocs")
	}
	metrics := map[string]float64{}
	var balanced, balancedOv *liveResult
	for _, s := range splits {
		tag := fmt.Sprintf("%dx%d", s[0], s[1])
		r := transposeCycle(transport, s[0], s[1], false, b.overlap)
		metrics["cycle_seconds_"+tag] = r.elapsed.Seconds()
		var o *liveResult
		if b.overlap {
			o = transposeCycle(transport, s[0], s[1], true, true)
			exposed, hidden := o.overlapRow(metrics, "overlap_cycle_seconds_", tag)
			lt.Row(s[0], s[1], r.elapsed.String(), o.elapsed.String(), r.elapsed.Seconds()/o.elapsed.Seconds(), exposed, hidden, o.allocs)
		} else {
			_, _, bytes := r.reg.Rank(0).CommCounts(telemetry.CommYtoZ) // all four directions agree
			lt.Row(s[0], s[1], r.elapsed.String(), fmt.Sprintf("%.2f", float64(bytes)/(1<<20)), r.allocs)
		}
		if s[0] == s[1] {
			balanced, balancedOv = r, o
		}
	}
	lt.Write(b.out)
	if b.overlap {
		fmt.Fprintln(b.out, "exposed/hidden: wire time the pipelined cycles waited on vs "+
			"overlapped with pack/unpack (trace analyzer, summed across ranks "+
			"and iterations); ratio > 1 means the pipeline won.")
	} else {
		fmt.Fprintln(b.out, "MB moved/dir: rank-0 bytes through each transpose direction "+
			"(pack+unpack); steady allocs: heap objects allocated process-wide "+
			"during the timed cycles (message copies only — plan tables and "+
			"exchange buffers are reused).")
	}
	// The transport in the config tells paired chan/tcp reports apart.
	return metrics, b.writeSweep("table5", suffix, map[string]string{
		"nkx": "32", "nz": "32", "ny": "32", "fields": "3", "iters": fmt.Sprint(transposeIters),
		"splits": "16x1,8x2,4x4,2x8,1x16", "transport": transport,
	}, metrics, balanced, balancedOv)
}

// transposeSchedule prints the cycle schedule of the balanced split, the
// program the sweep's reports describe, as a live run of it declares it.
func transposeSchedule(b *bench) error {
	transposeCycle("chan", 4, 4, false, false).sched.Write(b.out)
	return nil
}

// figure4 reproduces Figure 4: for a 128-task 8x16 cartesian grid, the CommA
// (column) and CommB (row) membership of every rank.
func figure4(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: communication pattern of 128 MPI tasks (8x16 grid)\n"+
		"Each cell shows worldRank; ranks sharing a row exchange in CommB(16),\nranks sharing a column exchange in CommA(8).")
	mpi.Run(128, func(c *mpi.Comm) {
		co := c.CartCreate([]int{8, 16}).Coords()
		all := mpi.Gather(c, 0, []int{c.Rank(), co[0], co[1]})
		if c.Rank() != 0 {
			return
		}
		var grid [8][16]int
		for i := 0; i < 128; i++ {
			grid[all[3*i+1]][all[3*i+2]] = all[3*i]
		}
		for r, row := range grid {
			fmt.Fprintf(w, "CommB group %2d (black): ", r)
			for _, rank := range row {
				fmt.Fprintf(w, "%4d", rank)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "CommA groups (red) are the 16 columns above, e.g. column 0:")
		for _, row := range grid {
			fmt.Fprintf(w, "%4d", row[0])
		}
		fmt.Fprintln(w)
	})
}

// Table 6: the parallel FFT cycle.

func model6(w io.Writer) {
	tbl := newTable("Table 6: parallel FFT strong scaling (elapsed seconds)",
		"system", "cores", "P3DFFT model", "Custom model", "ratio", "P3DFFT paper", "Custom paper", "paper ratio")
	na := func(v float64) string {
		if v == 0 {
			return "N/A"
		}
		return fmt.Sprintf("%.3g", v)
	}
	for _, r := range machine.Table6() {
		tbl.Row(r.System, r.Cores, na(r.ModelP3DFFT), na(r.ModelCustom), na(r.ModelRatio),
			na(r.PaperP3DFFT), na(r.PaperCustom), na(r.PaperRatio))
	}
	tbl.Write(w)
}

// Kernel variants the live FFT sweep times, fftIters cycles each.
const (
	kindBaseline = iota // P3DFFT-style: Nyquist kept, 3x buffers, serial
	kindCustom          // customized kernel, serial (one-shot) exchanges
	kindOverlap         // customized kernel, pipelined transpose/FFT overlap
	fftIters     = 3
)

// fftCycle times full transform cycles of one kernel variant over 3 fields
// of a 64x32x64 grid; the custom variants record their FFT stages and
// transposes. Kernel.Cycle brackets its own trace steps, the warm-up's too.
func fftCycle(pa, pb, kind int, traced bool) *liveResult {
	res := newLive(traced)
	res.time(mpi.Run, pa*pb, fftIters, func(c *mpi.Comm, tel *telemetry.Collector, rec *trace.Recorder) (func(int), *schedule.Schedule) {
		k := parfft.NewBaseline(c, pa, pb, 64, 32, 64)
		if kind != kindBaseline {
			k = parfft.NewCustom(c, pa, pb, 64, 32, 64, par.NewPool(2))
			k.D.Overlap = kind == kindOverlap
			k.SetTelemetry(tel)
			if rec != nil {
				k.SetTrace(rec)
			}
		}
		fields := pencil.AllocFields(3, k.YPencilLen())
		return func(int) { fields, _ = k.Cycle(fields) }, k.Schedule(3)
	})
	return res
}

// fftSweep times the custom kernel against the baseline on three splits
// (and, under -overlap, against its pipelined self, traced on both sides);
// the reports describe the custom kernel on the largest split.
func fftSweep(b *bench) error {
	fmt.Fprintf(b.out, "\nLive in-process cycles (GOMAXPROCS=%d), 64x32x64 grid, 3 fields:\n", runtime.GOMAXPROCS(0))
	lt := newTable("", "ranks", "custom", "baseline", "ratio")
	if b.overlap {
		lt = newTable("", "ranks", "custom", "pipelined", "baseline", "ratio", "exposed [ms]", "hidden [ms]")
	}
	metrics := map[string]float64{}
	var custom, pipelined *liveResult
	ranks := 0
	for _, p := range [][2]int{{1, 1}, {2, 2}, {4, 2}} {
		ranks = p[0] * p[1]
		tag := fmt.Sprintf("%dranks", ranks)
		custom = fftCycle(p[0], p[1], kindCustom, b.overlap)
		base := fftCycle(p[0], p[1], kindBaseline, false)
		metrics["custom_seconds_"+tag] = custom.elapsed.Seconds()
		metrics["baseline_seconds_"+tag] = base.elapsed.Seconds()
		if b.overlap {
			pipelined = fftCycle(p[0], p[1], kindOverlap, true)
			exposed, hidden := pipelined.overlapRow(metrics, "overlap_seconds_", tag)
			lt.Row(ranks, custom.elapsed.String(), pipelined.elapsed.String(), base.elapsed.String(),
				base.elapsed.Seconds()/pipelined.elapsed.Seconds(), exposed, hidden)
		} else {
			lt.Row(ranks, custom.elapsed.String(), base.elapsed.String(), base.elapsed.Seconds()/custom.elapsed.Seconds())
		}
	}
	lt.Write(b.out)
	if b.overlap {
		fmt.Fprintln(b.out, "pipelined: custom kernel with the chunked per-peer-progress "+
			"exchange; exposed/hidden: wire time its cycles waited on vs "+
			"overlapped with per-line FFT work (trace analyzer, summed across "+
			"ranks and iterations).")
	}
	return b.writeSweep("table6", "", map[string]string{
		"nx": "64", "ny": "32", "nz": "64", "fields": "3", "iters": fmt.Sprint(fftIters),
		"kernel": "custom", "ranks": fmt.Sprint(ranks),
	}, metrics, custom, pipelined)
}

// fftSchedules prints the cycle schedules of both kernels on the largest
// live split, as live runs of the programs the table times declare them.
func fftSchedules(b *bench) error {
	for _, kind := range []int{kindCustom, kindBaseline} {
		fftCycle(4, 2, kind, false).sched.Write(b.out)
		fmt.Fprintln(b.out)
	}
	return nil
}
