// Command bench-comm regenerates Table 5 (global transpose performance as a
// function of the CommA x CommB split) and Figure 4 (the communication
// pattern of the two sub-communicators).
//
// The Table 5 scales (8192 Mira cores, 384 Lonestar cores) come from the
// machine model; -live additionally measures real in-process transpose
// cycles over the message-passing runtime at laptop scale, sweeping the
// same split dimension. The live sweep records through the telemetry
// subsystem — the same phase timers and per-direction comm counters the DNS
// timestep feeds — and -json writes the aggregated telemetry.Report.
// -overlap A/Bs every split against the pipelined (chunked, per-peer
// progress) exchange, printing how much of the wire time the pipeline hid.
// -transport selects the message-passing transport for the live cycles:
// chan (in-process mailboxes, the default), tcp (loopback sockets with the
// full serialize/frame path), or both — an A/B that times every split on
// each transport and, with -json, emits the paired chan/tcp BENCH reports
// that make the wire cost of the transpose cycle a gated number.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"channeldns/internal/machine"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/pencil"
	"channeldns/internal/perf"
	"channeldns/internal/schedule"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

func main() {
	pattern := flag.Bool("pattern", false, "print the Figure 4 communicator pattern (128 ranks)")
	showSched := flag.Bool("schedule", false, "print the declarative op schedule of the live transpose cycle (balanced 4x4 split)")
	live := flag.Bool("live", false, "also run live in-process transpose cycles")
	overlapAB := flag.Bool("overlap", false, "A/B the serial exchange against the pipelined overlap for every live split (implies -live)")
	jsonPath := flag.String("json", "", "write a telemetry report of the live sweep to this file (implies -live; with -overlap a paired .overlap.json rides along, with -transport=both a paired .tcp.json)")
	transportF := flag.String("transport", "chan", "live-cycle transport: chan, tcp, or both (A/B, implies -live)")
	flag.Parse()

	if *pattern {
		printPattern()
		return
	}
	if *showSched {
		printSchedule()
		return
	}

	runners := map[string]func(int, func(*mpi.Comm)){"chan": mpi.Run, "tcp": mpi.RunTCP}
	if _, ok := runners[*transportF]; !ok && *transportF != "both" {
		fmt.Fprintf(os.Stderr, "bench-comm: unknown -transport %q (want chan, tcp, or both)\n", *transportF)
		os.Exit(2)
	}
	if *transportF == "both" && *overlapAB {
		fmt.Fprintln(os.Stderr, "bench-comm: -overlap and -transport=both are separate A/Bs; run one at a time")
		os.Exit(2)
	}

	tbl := perf.Table{
		Title:   "Table 5: global transpose cycle time vs CommA x CommB split",
		Headers: []string{"system", "CommA", "CommB", "model (s)", "paper (s)"},
	}
	for _, r := range machine.Table5() {
		tbl.AddRowf(r.System, r.PA, r.PB, r.Model, r.Paper)
	}
	tbl.Write(os.Stdout)

	if *live || *overlapAB || *jsonPath != "" || *transportF != "chan" {
		if *transportF == "both" {
			transportAB(runners, *jsonPath)
			return
		}
		runner := runners[*transportF]
		fmt.Printf("\nLive transpose cycle, %s transport (16 ranks, 64x32x32 modes, 3 fields):\n", *transportF)
		headers := []string{"CommA", "CommB", "elapsed", "MB moved/dir", "steady allocs"}
		if *overlapAB {
			headers = []string{"CommA", "CommB", "serial", "pipelined", "ratio",
				"exposed [ms]", "hidden [ms]", "steady allocs"}
		}
		lt := perf.Table{Headers: headers}
		metrics := map[string]float64{}
		var balanced, balancedOv *liveResult
		for _, split := range [][2]int{{16, 1}, {8, 2}, {4, 4}, {2, 8}, {1, 16}} {
			r := liveCycle(runner, split[0], split[1], false, *overlapAB)
			metrics[fmt.Sprintf("cycle_seconds_%dx%d", split[0], split[1])] = r.elapsed.Seconds()
			if *overlapAB {
				o := liveCycle(runner, split[0], split[1], true, true)
				lt.AddRowf(split[0], split[1], r.elapsed.String(), o.elapsed.String(),
					r.elapsed.Seconds()/o.elapsed.Seconds(),
					fmt.Sprintf("%.3f", o.exposed*1e3), fmt.Sprintf("%.3f", o.hidden*1e3),
					o.allocs)
				metrics[fmt.Sprintf("overlap_cycle_seconds_%dx%d", split[0], split[1])] = o.elapsed.Seconds()
				metrics[fmt.Sprintf("overlap_exposed_seconds_%dx%d", split[0], split[1])] = o.exposed
				metrics[fmt.Sprintf("overlap_hidden_seconds_%dx%d", split[0], split[1])] = o.hidden
				if split[0] == 4 && split[1] == 4 {
					balancedOv = o
				}
			} else {
				lt.AddRowf(split[0], split[1], r.elapsed.String(),
					fmt.Sprintf("%.2f", float64(r.bytesPerDir)/(1<<20)), r.allocs)
			}
			if split[0] == 4 && split[1] == 4 {
				balanced = r
			}
		}
		lt.Write(os.Stdout)
		if *overlapAB {
			fmt.Println("exposed/hidden: wire time the pipelined cycles waited on vs " +
				"overlapped with pack/unpack (trace analyzer, summed across ranks " +
				"and iterations); ratio > 1 means the pipeline won.")
		} else {
			fmt.Println("MB moved/dir: rank-0 bytes through each transpose direction " +
				"(pack+unpack); steady allocs: heap objects allocated process-wide " +
				"during the timed cycles (message copies only — plan tables and " +
				"exchange buffers are reused).")
		}

		if *jsonPath != "" {
			rep := telemetry.NewReport("table5", balanced.reg, sweepConfig(*transportF, nil))
			// Phase/comm tables describe the balanced 4x4 split; the other
			// splits' cycle times ride along as metrics.
			rep.WallSeconds = balanced.elapsed.Seconds()
			rep.Metrics = metrics
			rep.Schedule = balanced.sched
			perf.WriteReport(rep, *jsonPath)
			if balancedOv != nil {
				ovPath := strings.TrimSuffix(*jsonPath, ".json") + ".overlap.json"
				ovRep := telemetry.NewReport("table5-overlap", balancedOv.reg,
					sweepConfig(*transportF, map[string]string{"overlap": "true"}))
				ovRep.WallSeconds = balancedOv.elapsed.Seconds()
				ovRep.Schedule = balancedOv.sched
				ovRep.Trace = balancedOv.traceSum
				perf.WriteReport(ovRep, ovPath)
			}
		}
	}
}

// sweepConfig is the live sweep's report config, stamped with the
// transport so paired chan/tcp reports stay distinguishable downstream.
func sweepConfig(transport string, extra map[string]string) map[string]string {
	cfg := map[string]string{
		"nkx": "32", "nz": "32", "ny": "32",
		"fields": "3", "iters": "4", "splits": "16x1,8x2,4x4,2x8,1x16",
		"transport": transport,
	}
	for k, v := range extra {
		cfg[k] = v
	}
	return cfg
}

// transportAB runs every live split on both transports and prints the
// wire cost of the cycle: tcp elapsed over chan elapsed, everything else
// identical. With a -json path it writes the paired BENCH reports — the
// chan sweep at the path itself and the tcp sweep at a .tcp.json sibling
// — so CI can gate on the pair.
func transportAB(runners map[string]func(int, func(*mpi.Comm)), jsonPath string) {
	fmt.Println("\nLive transpose cycle, chan vs tcp transport (16 ranks, 64x32x32 modes, 3 fields):")
	lt := perf.Table{Headers: []string{"CommA", "CommB", "chan", "tcp", "wire cost", "tcp MB/dir"}}
	metrics := map[string]map[string]float64{"chan": {}, "tcp": {}}
	balanced := map[string]*liveResult{}
	for _, split := range [][2]int{{16, 1}, {8, 2}, {4, 4}, {2, 8}, {1, 16}} {
		res := map[string]*liveResult{}
		for _, tr := range []string{"chan", "tcp"} {
			r := liveCycle(runners[tr], split[0], split[1], false, false)
			res[tr] = r
			metrics[tr][fmt.Sprintf("cycle_seconds_%dx%d", split[0], split[1])] = r.elapsed.Seconds()
			if split[0] == 4 && split[1] == 4 {
				balanced[tr] = r
			}
		}
		lt.AddRowf(split[0], split[1],
			res["chan"].elapsed.String(), res["tcp"].elapsed.String(),
			fmt.Sprintf("%.2fx", res["tcp"].elapsed.Seconds()/res["chan"].elapsed.Seconds()),
			fmt.Sprintf("%.2f", float64(res["tcp"].bytesPerDir)/(1<<20)))
	}
	lt.Write(os.Stdout)
	fmt.Println("wire cost: tcp elapsed / chan elapsed for the same split — the " +
		"price of serializing every transpose message through loopback sockets.")
	if jsonPath == "" {
		return
	}
	paths := map[string]string{
		"chan": jsonPath,
		"tcp":  strings.TrimSuffix(jsonPath, ".json") + ".tcp.json",
	}
	for _, tr := range []string{"chan", "tcp"} {
		rep := telemetry.NewReport("table5", balanced[tr].reg, sweepConfig(tr, nil))
		rep.WallSeconds = balanced[tr].elapsed.Seconds()
		rep.Metrics = metrics[tr]
		rep.Schedule = balanced[tr].sched
		perf.WriteReport(rep, paths[tr])
	}
}

// liveResult is one timed split of the live sweep.
type liveResult struct {
	elapsed         time.Duration
	bytesPerDir     int64  // rank-0 bytes moved per direction (all four agree)
	allocs          uint64 // process-wide heap objects during the timed loop
	exposed, hidden float64
	reg             *telemetry.Registry
	sched           *schedule.Schedule // the cycle as this split executed it
	traceSum        *telemetry.TraceSummary
}

// liveCycle times 4 transpose cycles on a pa x pb split under the given
// runner (mpi.Run for the channel transport, mpi.RunTCP for loopback
// sockets). With overlap the four legs run through the pipelined chunked
// exchange (nil consume: this benchmark isolates the transposes, so
// there is no FFT stage to hide under — the pipeline still overlaps wire
// time with pack/unpack). With traced, a flight recorder rides along so
// the analyzer can attribute exposed vs hidden wire time; tracing is on
// for both sides of the -overlap A/B so the timings stay comparable.
func liveCycle(runner func(int, func(*mpi.Comm)), pa, pb int, overlap, traced bool) *liveResult {
	res := &liveResult{reg: telemetry.NewRegistry()}
	var trc *trace.Trace
	if traced {
		trc = trace.New(0)
	}
	runner(pa*pb, func(c *mpi.Comm) {
		d := pencil.New(c, pa, pb, 32, 32, 32, par.NewPool(1))
		d.Overlap = overlap
		tel := res.reg.Rank(c.Rank())
		d.Telemetry = tel
		var rec *trace.Recorder
		if trc != nil {
			rec = trc.Rank(c.Rank())
			d.Trace = rec
			tel.SetTracer(rec)
		}
		fields := make([][]complex128, 3)
		for f := range fields {
			fields[f] = make([]complex128, d.YPencilLen())
		}
		// Preallocated destinations: the steady-state cycle reuses these
		// and the Decomp's transpose plans, so the loop below allocates
		// nothing beyond the runtime's per-message copies (and nothing at
		// all on the pipelined path, which sends from preallocated wire
		// arenas).
		zp := pencil.AllocFields(3, d.ZPencilLen(d.NZ))
		xp := pencil.AllocFields(3, d.XPencilLen(d.NZ))
		zp2 := pencil.AllocFields(3, d.ZPencilLen(d.NZ))
		out := pencil.AllocFields(3, d.YPencilLen())
		cycle := func() {
			if overlap {
				d.YtoZPipelined(zp, fields, nil)
				d.ZtoXPipelined(xp, zp, d.NZ, nil)
				d.XtoZPipelined(zp2, xp, d.NZ, nil)
				d.ZtoYPipelined(out, zp2, nil)
			} else {
				d.YtoZ(zp, fields)
				d.ZtoX(xp, zp, d.NZ)
				d.XtoZ(zp2, xp, d.NZ)
				d.ZtoY(out, zp2)
			}
		}
		cycle() // warm the plans
		c.Barrier()
		d.Telemetry.Reset() // drop warmup samples; each rank resets its own
		c.Barrier()
		before := perf.ReadAllocs()
		t0 := time.Now()
		for it := 0; it < 4; it++ {
			rec.BeginStep(int64(it))
			st0 := time.Now()
			cycle()
			rec.EndStep(st0, time.Now())
		}
		c.Barrier()
		if c.Rank() == 0 {
			res.elapsed = time.Since(t0)
			res.allocs = perf.ReadAllocs().Sub(before).Mallocs
			_, _, bytes := d.Telemetry.CommCounts(telemetry.CommYtoZ)
			res.bytesPerDir = bytes
			res.sched = d.CycleSchedule(3)
		}
	})
	if trc != nil {
		res.traceSum = trace.Summarize(trc)
		if res.traceSum != nil {
			for _, s := range res.traceSum.Steps {
				res.exposed += s.ExposedWireSeconds
				res.hidden += s.HiddenWireSeconds
			}
		}
	}
	return res
}

// printSchedule builds the balanced live decomposition and prints its cycle
// schedule — the program the -live sweep times and -json reports carry.
func printSchedule() {
	mpi.Run(16, func(c *mpi.Comm) {
		d := pencil.New(c, 4, 4, 32, 32, 32, par.NewPool(1))
		if c.Rank() == 0 {
			d.CycleSchedule(3).Write(os.Stdout)
		}
	})
}

// printPattern reproduces Figure 4: for a 128-task 8x16 cartesian grid, the
// CommA (row) and CommB (column) membership of every rank.
func printPattern() {
	fmt.Println("Figure 4: communication pattern of 128 MPI tasks (8x16 grid)")
	fmt.Println("Each cell shows worldRank; ranks sharing a row exchange in CommB(16),")
	fmt.Println("ranks sharing a column exchange in CommA(8).")
	mpi.Run(128, func(c *mpi.Comm) {
		cart := c.CartCreate([]int{8, 16})
		commA := cart.CartSub([]bool{true, false})
		commB := cart.CartSub([]bool{false, true})
		// Rank 0 gathers (worldRank, coordsA, coordsB) and prints the grid.
		info := []int{c.Rank(), cart.Coords()[0], cart.Coords()[1], commA.Rank(), commB.Rank()}
		all := mpi.Gather(c, 0, info)
		if c.Rank() != 0 {
			return
		}
		grid := make([][]int, 8)
		for i := range grid {
			grid[i] = make([]int, 16)
		}
		for i := 0; i < 128; i++ {
			rec := all[i*5 : i*5+5]
			grid[rec[1]][rec[2]] = rec[0]
		}
		for r := 0; r < 8; r++ {
			fmt.Printf("CommB group %2d (black): ", r)
			for q := 0; q < 16; q++ {
				fmt.Printf("%4d", grid[r][q])
			}
			fmt.Println()
		}
		fmt.Println("CommA groups (red) are the 16 columns above, e.g. column 0:")
		for r := 0; r < 8; r++ {
			fmt.Printf("%4d", grid[r][0])
		}
		fmt.Println()
	})
}
