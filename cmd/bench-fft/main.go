// Command bench-fft regenerates Table 6: strong scaling of the parallel FFT
// cycle, customized kernel vs the P3DFFT-style baseline, on Mira, Lonestar
// and Stampede (machine model), optionally with live in-process runs of
// both kernels at laptop scale (-live). -overlap additionally A/Bs the
// custom kernel's serial exchange against the pipelined transpose/FFT
// overlap and prints how much wire time the pipeline hid.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"channeldns/internal/machine"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/parfft"
	"channeldns/internal/perf"
	"channeldns/internal/schedule"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

func main() {
	live := flag.Bool("live", false, "also run live in-process FFT cycles")
	overlapAB := flag.Bool("overlap", false, "A/B the custom kernel's serial exchange against the pipelined transpose/FFT overlap (implies -live)")
	showSched := flag.Bool("schedule", false, "print the declarative op schedules of the live custom and baseline kernels")
	jsonPath := flag.String("json", "", "write a telemetry report of the live custom-kernel cycles to this file (implies -live; with -overlap a paired .overlap.json rides along)")
	flag.Parse()

	if *showSched {
		printSchedules()
		return
	}

	tbl := perf.Table{
		Title: "Table 6: parallel FFT strong scaling (elapsed seconds)",
		Headers: []string{"system", "cores", "P3DFFT model", "Custom model", "ratio",
			"P3DFFT paper", "Custom paper", "paper ratio"},
	}
	fmtNA := func(v float64) string {
		if v == 0 {
			return "N/A"
		}
		return fmt.Sprintf("%.3g", v)
	}
	for _, r := range machine.Table6() {
		tbl.AddRow(r.System, fmt.Sprint(r.Cores),
			fmtNA(r.ModelP3DFFT), fmtNA(r.ModelCustom), fmtNA(r.ModelRatio),
			fmtNA(r.PaperP3DFFT), fmtNA(r.PaperCustom), fmtNA(r.PaperRatio))
	}
	tbl.Write(os.Stdout)

	if *live || *overlapAB || *jsonPath != "" {
		fmt.Printf("\nLive in-process cycles (GOMAXPROCS=%d), 64x32x64 grid, 3 fields:\n", runtime.GOMAXPROCS(0))
		headers := []string{"ranks", "custom", "baseline", "ratio"}
		if *overlapAB {
			headers = []string{"ranks", "custom", "pipelined", "baseline", "ratio",
				"exposed [ms]", "hidden [ms]"}
		}
		lt := perf.Table{Headers: headers}
		metrics := map[string]float64{}
		var last, lastOv *liveResult
		for _, p := range [][2]int{{1, 1}, {2, 2}, {4, 2}} {
			ranks := p[0] * p[1]
			c := liveCycle(p[0], p[1], kindCustom, *overlapAB)
			b := liveCycle(p[0], p[1], kindBaseline, false)
			metrics[fmt.Sprintf("custom_seconds_%dranks", ranks)] = c.elapsed.Seconds()
			metrics[fmt.Sprintf("baseline_seconds_%dranks", ranks)] = b.elapsed.Seconds()
			if *overlapAB {
				o := liveCycle(p[0], p[1], kindOverlap, true)
				lt.AddRowf(ranks, c.elapsed.String(), o.elapsed.String(), b.elapsed.String(),
					b.elapsed.Seconds()/o.elapsed.Seconds(),
					fmt.Sprintf("%.3f", o.exposed*1e3), fmt.Sprintf("%.3f", o.hidden*1e3))
				metrics[fmt.Sprintf("overlap_seconds_%dranks", ranks)] = o.elapsed.Seconds()
				metrics[fmt.Sprintf("overlap_exposed_seconds_%dranks", ranks)] = o.exposed
				metrics[fmt.Sprintf("overlap_hidden_seconds_%dranks", ranks)] = o.hidden
				lastOv = o
			} else {
				lt.AddRowf(ranks, c.elapsed.String(), b.elapsed.String(),
					b.elapsed.Seconds()/c.elapsed.Seconds())
			}
			last = c
			last.ranks = ranks
		}
		lt.Write(os.Stdout)
		if *overlapAB {
			fmt.Println("pipelined: custom kernel with the chunked per-peer-progress " +
				"exchange; exposed/hidden: wire time its cycles waited on vs " +
				"overlapped with per-line FFT work (trace analyzer, summed across " +
				"ranks and iterations).")
		}

		if *jsonPath != "" {
			rep := telemetry.NewReport("table6", last.reg, map[string]string{
				"nx": "64", "ny": "32", "nz": "64", "fields": "3", "iters": "3",
				"kernel": "custom", "ranks": fmt.Sprint(last.ranks),
			})
			rep.WallSeconds = last.elapsed.Seconds()
			rep.Metrics = metrics
			rep.Schedule = last.sched
			perf.WriteReport(rep, *jsonPath)
			if lastOv != nil {
				ovPath := strings.TrimSuffix(*jsonPath, ".json") + ".overlap.json"
				ovRep := telemetry.NewReport("table6-overlap", lastOv.reg, map[string]string{
					"nx": "64", "ny": "32", "nz": "64", "fields": "3", "iters": "3",
					"kernel": "custom", "ranks": fmt.Sprint(last.ranks),
					"overlap": "true",
				})
				ovRep.WallSeconds = lastOv.elapsed.Seconds()
				ovRep.Schedule = lastOv.sched
				ovRep.Trace = lastOv.traceSum
				perf.WriteReport(ovRep, ovPath)
			}
		}
	}
}

// Kernel variants the live sweep times.
const (
	kindBaseline = iota // P3DFFT-style: Nyquist kept, 3x buffers, serial
	kindCustom          // customized kernel, serial (one-shot) exchanges
	kindOverlap         // customized kernel, pipelined transpose/FFT overlap
)

// liveResult is one timed kernel variant at one split.
type liveResult struct {
	elapsed         time.Duration
	ranks           int
	exposed, hidden float64
	reg             *telemetry.Registry
	sched           *schedule.Schedule
	traceSum        *telemetry.TraceSummary
}

// liveCycle times iters cycles of one kernel variant; the custom variants
// record through a telemetry registry (FFT stages plus transpose phases)
// returned for report assembly. With traced, a flight recorder rides along
// (on both sides of the -overlap A/B, so the timings stay comparable) and
// the trace analyzer attributes exposed vs hidden wire time.
func liveCycle(pa, pb, kind int, traced bool) *liveResult {
	res := &liveResult{reg: telemetry.NewRegistry()}
	var trc *trace.Trace
	if traced {
		trc = trace.New(0)
	}
	mpi.Run(pa*pb, func(c *mpi.Comm) {
		var k *parfft.Kernel
		if kind == kindBaseline {
			k = parfft.NewBaseline(c, pa, pb, 64, 32, 64)
		} else {
			k = parfft.NewCustom(c, pa, pb, 64, 32, 64, par.NewPool(2))
			k.D.Overlap = kind == kindOverlap
			tel := res.reg.Rank(c.Rank())
			k.SetTelemetry(tel)
			if trc != nil {
				rec := trc.Rank(c.Rank())
				k.SetTrace(rec)
				tel.SetTracer(rec)
			}
		}
		if c.Rank() == 0 {
			res.sched = k.Schedule(3)
		}
		fields := make([][]complex128, 3)
		for f := range fields {
			fields[f] = make([]complex128, k.YPencilLen())
		}
		fields, _ = k.Cycle(fields) // warm plans, buffers and streams
		c.Barrier()
		t0 := time.Now()
		for it := 0; it < 3; it++ {
			fields, _ = k.Cycle(fields)
		}
		c.Barrier()
		if c.Rank() == 0 {
			res.elapsed = time.Since(t0)
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

// printSchedules builds both kernels on the largest live split and prints
// their cycle schedules — the programs the -live table times.
func printSchedules() {
	for _, custom := range []bool{true, false} {
		custom := custom
		mpi.Run(8, func(c *mpi.Comm) {
			var k *parfft.Kernel
			if custom {
				k = parfft.NewCustom(c, 4, 2, 64, 32, 64, par.NewPool(1))
			} else {
				k = parfft.NewBaseline(c, 4, 2, 64, 32, 64)
			}
			if c.Rank() == 0 {
				k.Schedule(3).Write(os.Stdout)
				fmt.Println()
			}
		})
	}
}
