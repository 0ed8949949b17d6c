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
)

// liveResult is one timed configuration of a live sweep: its registry,
// attached before the run, and what the run filled in.
type liveResult struct {
	reg *telemetry.Registry

	elapsed time.Duration      // rank 0's wall clock over the timed iterations
	allocs  uint64             // heap objects allocated process-wide meanwhile
	sched   *schedule.Schedule // the program as the ranks executed it
}

// cycleBuilder is a rank's part of a live measurement: build the program on
// c, recording through tel, and return one iteration of it and, when the
// report wants it from here, its schedule.
type cycleBuilder func(c *mpi.Comm, tel *telemetry.Collector) (cycle func(it int), sched *schedule.Schedule)

func newLive() *liveResult { return &liveResult{reg: telemetry.NewRegistry()} }

// time is the one live measurement. Every rank of a world started by runner
// builds its cycle; cycle(-1) runs once to warm plans, buffers and streams
// and is dropped from the telemetry; cycle(0..iters-1) run between barriers
// under rank 0's clock and the allocation counter.
func (r *liveResult) time(runner func(int, func(*mpi.Comm)), ranks, iters int, build cycleBuilder) {
	runner(ranks, func(c *mpi.Comm) {
		tel := r.reg.Rank(c.Rank())
		cycle, sched := build(c, tel)
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
}

// report assembles the BENCH report of this configuration: its registry's
// phase and comm tables under the timed wall clock, with the schedule.
func (r *liveResult) report(table string, config map[string]string, metrics map[string]float64) *telemetry.Report {
	rep := telemetry.NewReport(table, r.reg, config)
	rep.WallSeconds, rep.Metrics, rep.Schedule = r.elapsed.Seconds(), metrics, r.sched
	return rep
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
// the runtime's per-message copies.
func transposeCycle(transport string, pa, pb int) *liveResult {
	res := newLive()
	res.time(runners[transport], pa*pb, transposeIters, func(c *mpi.Comm, tel *telemetry.Collector) (func(int), *schedule.Schedule) {
		d := pencil.New(c, pa, pb, 32, 32, 32, par.NewPool(1))
		d.Telemetry = tel
		fields := pencil.AllocFields(3, d.YPencilLen())
		zp := pencil.AllocFields(3, d.ZPencilLen(d.NZ))
		xp := pencil.AllocFields(3, d.XPencilLen(d.NZ))
		zp2 := pencil.AllocFields(3, d.ZPencilLen(d.NZ))
		out := pencil.AllocFields(3, d.YPencilLen())
		return func(int) {
			d.YtoZ(zp, fields)
			d.ZtoX(xp, zp, d.NZ)
			d.XtoZ(zp2, xp, d.NZ)
			d.ZtoY(out, zp2)
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
// recorded.
func transposeOn(b *bench, transport, suffix string) (map[string]float64, error) {
	fmt.Fprintf(b.out, "\nLive transpose cycle, %s transport (16 ranks, 64x32x32 modes, 3 fields):\n", transport)
	lt := newTable("", "CommA", "CommB", "elapsed", "MB moved/dir", "steady allocs")
	metrics := map[string]float64{}
	var balanced *liveResult
	for _, s := range splits {
		r := transposeCycle(transport, s[0], s[1])
		metrics[fmt.Sprintf("cycle_seconds_%dx%d", s[0], s[1])] = r.elapsed.Seconds()
		_, _, bytes := r.reg.Rank(0).CommCounts(telemetry.CommYtoZ) // all four directions agree
		lt.Row(s[0], s[1], r.elapsed.String(), fmt.Sprintf("%.2f", float64(bytes)/(1<<20)), r.allocs)
		if s[0] == s[1] {
			balanced = r
		}
	}
	lt.Write(b.out)
	fmt.Fprintln(b.out, "MB moved/dir: rank-0 bytes through each transpose direction "+
		"(pack+unpack); steady allocs: heap objects allocated process-wide "+
		"during the timed cycles (message copies only — plan tables and "+
		"exchange buffers are reused).")
	// The transport in the config tells paired chan/tcp reports apart.
	return metrics, b.writeSweep("table5", suffix, map[string]string{
		"nkx": "32", "nz": "32", "ny": "32", "fields": "3", "iters": fmt.Sprint(transposeIters),
		"splits": "16x1,8x2,4x4,2x8,1x16", "transport": transport,
	}, metrics, balanced)
}

// transposeSchedule prints the cycle schedule of the balanced split, the
// program the sweep's reports describe, as a live run of it declares it.
func transposeSchedule(b *bench) error {
	transposeCycle("chan", 4, 4).sched.Write(b.out)
	return nil
}

// figure4 reproduces Figure 4: for a 128-task 8x16 cartesian grid, the CommA
// (column) and CommB (row) membership of every rank, as 128 in-process
// ranks report it.
func figure4(b *bench) error {
	w := b.out
	fmt.Fprintln(w, "Figure 4: communication pattern of 128 MPI tasks (8x16 grid)\n"+
		"Each cell shows worldRank; ranks sharing a row exchange in CommB(16),\nranks sharing a column exchange in CommA(8).")
	var err error
	mpi.Run(128, func(c *mpi.Comm) {
		co := c.CartCreate([]int{8, 16}).Coords()
		all, gerr := mpi.Gather(c, 0, []int{c.Rank(), co[0], co[1]})
		if c.Rank() != 0 {
			return
		}
		if err = gerr; err != nil {
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
	return err
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

const fftIters = 3

// fftCycle times full transform cycles of one kernel over 3 fields of a
// 64x32x64 grid: the customized kernel, which records its FFT stages and
// transposes, or the P3DFFT-style baseline (Nyquist kept, 3x buffers,
// serial).
func fftCycle(pa, pb int, custom bool) *liveResult {
	res := newLive()
	res.time(mpi.Run, pa*pb, fftIters, func(c *mpi.Comm, tel *telemetry.Collector) (func(int), *schedule.Schedule) {
		k := parfft.NewBaseline(c, pa, pb, 64, 32, 64)
		if custom {
			k = parfft.NewCustom(c, pa, pb, 64, 32, 64, par.NewPool(2))
			k.SetTelemetry(tel)
		}
		fields := pencil.AllocFields(3, k.YPencilLen())
		return func(int) { fields, _ = k.Cycle(fields) }, k.Schedule(3)
	})
	return res
}

// fftSweep times the custom kernel against the baseline on three splits;
// the reports describe the custom kernel on the largest split.
func fftSweep(b *bench) error {
	fmt.Fprintf(b.out, "\nLive in-process cycles (GOMAXPROCS=%d), 64x32x64 grid, 3 fields:\n", runtime.GOMAXPROCS(0))
	lt := newTable("", "ranks", "custom", "baseline", "ratio")
	metrics := map[string]float64{}
	var custom *liveResult
	ranks := 0
	for _, p := range [][2]int{{1, 1}, {2, 2}, {4, 2}} {
		ranks = p[0] * p[1]
		tag := fmt.Sprintf("%dranks", ranks)
		custom = fftCycle(p[0], p[1], true)
		base := fftCycle(p[0], p[1], false)
		metrics["custom_seconds_"+tag] = custom.elapsed.Seconds()
		metrics["baseline_seconds_"+tag] = base.elapsed.Seconds()
		lt.Row(ranks, custom.elapsed.String(), base.elapsed.String(), base.elapsed.Seconds()/custom.elapsed.Seconds())
	}
	lt.Write(b.out)
	return b.writeSweep("table6", "", map[string]string{
		"nx": "64", "ny": "32", "nz": "64", "fields": "3", "iters": fmt.Sprint(fftIters),
		"kernel": "custom", "ranks": fmt.Sprint(ranks),
	}, metrics, custom)
}

// fftSchedules prints the cycle schedules of both kernels on the largest
// live split, as live runs of the programs the table times declare them.
func fftSchedules(b *bench) error {
	for _, custom := range []bool{true, false} {
		fftCycle(4, 2, custom).sched.Write(b.out)
		fmt.Fprintln(b.out)
	}
	return nil
}
