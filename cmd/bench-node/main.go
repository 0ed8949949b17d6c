// Command bench-node regenerates the single-core and single-node tables of
// the paper: Table 2 (single-core N-S advance characterization), Table 3
// (OpenMP speedup of the FFT and time-advance kernels) and Table 4 (on-node
// data reordering scaling). Each table is printed twice: measured live on
// this machine with goroutine pools standing in for OpenMP threads, and as
// the calibrated Mira/Lonestar model values next to the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"channeldns/internal/banded"
	"channeldns/internal/fft"
	"channeldns/internal/machine"
	"channeldns/internal/par"
	"channeldns/internal/pencil"
	"channeldns/internal/perf"
	"channeldns/internal/telemetry"
)

func main() {
	table := flag.Int("table", 0, "table to print (2, 3 or 4; 0 = all)")
	jsonPath := flag.String("json", "", "write a telemetry report of the measured speedups to this file (implies all tables)")
	flag.Parse()
	metrics := map[string]float64{}
	if *table == 0 || *table == 2 || *jsonPath != "" {
		table2(metrics)
	}
	if *table == 0 || *table == 3 || *jsonPath != "" {
		table3(metrics)
	}
	if *table == 0 || *table == 4 || *jsonPath != "" {
		table4(metrics)
	}
	if *jsonPath != "" {
		// Single-node kernels are timed whole (no phase spans), so the
		// report carries the measured speedups and rates as metrics.
		rep := telemetry.NewReport("table2_3_4", telemetry.NewRegistry(), map[string]string{
			"ns_kernel": "nw=1024 ny=256 h=7", "fft_kernel": "512 lines of n=1024",
			"reorder": "64x96x64 x8 reps",
		})
		rep.Metrics = metrics
		perf.WriteReport(rep, *jsonPath)
	}
}

// nsKernel runs the time-advance linear algebra for nw wavenumbers over a
// pool and returns elapsed time plus counted flops.
func nsKernel(pool *par.Pool, nw, ny, h int) (time.Duration, int64) {
	mats := make([]*banded.Compact, nw)
	rhs := make([][]complex128, nw)
	for w := range mats {
		m := banded.NewCompact(ny, h)
		for i := 0; i < ny; i++ {
			for j := max(0, i-h); j <= min(ny-1, i+h); j++ {
				v := 0.1
				if i == j {
					v = float64(4*h + 8)
				}
				m.Set(i, j, v)
			}
		}
		mats[w] = m
		rhs[w] = make([]complex128, ny)
		for i := range rhs[w] {
			rhs[w][i] = complex(float64(i), 1)
		}
	}
	t0 := time.Now()
	pool.For(nw, func(w int) {
		if err := mats[w].Factor(); err != nil {
			panic(err)
		}
		mats[w].SolveComplex(rhs[w])
	})
	elapsed := time.Since(t0)
	// Flop count: LU ~ ny*(2h+1)*h mults+adds; solve ~ 2 passes x (2h+1)
	// x ny x 2 (real x complex).
	flops := int64(nw) * int64(ny) * int64((2*h+1)*h*2+2*(2*h+1)*4)
	return elapsed, flops
}

func fftKernel(pool *par.Pool, lines, n int) time.Duration {
	plan := fft.NewPlan(n)
	data := make([]complex128, lines*n)
	for i := range data {
		data[i] = complex(float64(i%13), float64(i%7))
	}
	t0 := time.Now()
	pool.For(lines, func(l int) {
		plan.Forward(data[l*n:(l+1)*n], data[l*n:(l+1)*n])
	})
	return time.Since(t0)
}

func table2(metrics map[string]float64) {
	fmt.Println("Table 2: single-core N-S time advance characterization")
	fmt.Println("\n-- measured on this machine (software counters) --")
	pool := par.NewPool(1)
	el, flops := nsKernel(pool, 2048, 256, 7)
	var c perf.Counters
	c.AddFlops(flops)
	fmt.Printf("GFlops: %.2f   elapsed: %v\n", c.GFlops(el), el)
	metrics["ns_gflops_1core"] = c.GFlops(el)

	fmt.Println("\n-- Mira model vs paper --")
	tbl := perf.Table{Headers: []string{"", "GFlops", "frac peak", "DDR B/cycle", "elapsed ratio"}}
	rows := machine.Table2(machine.Mira)
	var base float64
	for _, r := range rows {
		if !r.SIMD {
			base = r.Elapsed
		}
	}
	for _, r := range rows {
		name := "No SIMD"
		if r.SIMD {
			name = "SIMD"
		}
		tbl.AddRowf(name, r.GFlops, r.FracPeak, r.DDRBytesCycle, r.Elapsed/base)
	}
	tbl.AddRow("paper SIMD", "4.96", "0.388", "14.2", "1.19")
	tbl.AddRow("paper NoSIMD", "1.16", "0.0905", "16.8", "1.00")
	tbl.Write(os.Stdout)
	fmt.Println()
}

func table3(metrics map[string]float64) {
	fmt.Println("Table 3: single-node threading speedup (FFT / N-S advance)")
	fmt.Println("\n-- measured on this machine --")
	tbl := perf.Table{Headers: []string{"workers", "FFT speedup", "N-S speedup"}}
	baseF := fftKernel(par.NewPool(1), 512, 1024)
	baseN, _ := nsKernel(par.NewPool(1), 1024, 256, 7)
	for _, w := range []int{2, 4, 8} {
		f := fftKernel(par.NewPool(w), 512, 1024)
		n, _ := nsKernel(par.NewPool(w), 1024, 256, 7)
		tbl.AddRowf(w, baseF.Seconds()/f.Seconds(), baseN.Seconds()/n.Seconds())
		metrics[fmt.Sprintf("fft_speedup_%dworkers", w)] = baseF.Seconds() / f.Seconds()
		metrics[fmt.Sprintf("ns_speedup_%dworkers", w)] = baseN.Seconds() / n.Seconds()
	}
	tbl.Write(os.Stdout)

	fmt.Println("\n-- Mira model vs paper (speedup) --")
	mt := perf.Table{Headers: []string{"threads", "model", "paper FFT", "paper N-S"}}
	paper := map[int][2]float64{2: {1.99, 2.00}, 4: {3.96, 4.00}, 8: {7.88, 7.97},
		16: {15.4, 15.9}, 32: {27.6, 29.9}, 64: {32.6, 34.5}}
	for _, th := range []int{2, 4, 8, 16, 32, 64} {
		p := paper[th]
		mt.AddRowf(th, machine.Table3Speedup(machine.Mira, th), p[0], p[1])
	}
	mt.Write(os.Stdout)
	fmt.Println()
}

func table4(metrics map[string]float64) {
	fmt.Println("Table 4: on-node data reordering")
	fmt.Println("\n-- measured on this machine --")
	ni, nj, nk := 64, 96, 64
	src := make([]complex128, ni*nj*nk)
	dst := make([]complex128, ni*nj*nk)
	for i := range src {
		src[i] = complex(float64(i), 0)
	}
	run := func(w int) time.Duration {
		pool := par.NewPool(w)
		t0 := time.Now()
		for r := 0; r < 8; r++ {
			pencil.Reorder(dst, src, ni, nj, nk, pool)
		}
		return time.Since(t0)
	}
	base := run(1)
	tbl := perf.Table{Headers: []string{"workers", "speedup"}}
	for _, w := range []int{2, 4, 8} {
		s := base.Seconds() / run(w).Seconds()
		tbl.AddRowf(w, s)
		metrics[fmt.Sprintf("reorder_speedup_%dworkers", w)] = s
	}
	tbl.Write(os.Stdout)

	fmt.Println("\n-- Mira model vs paper --")
	mt := perf.Table{Headers: []string{"threads", "model speedup", "model B/cycle", "paper speedup", "paper B/cycle"}}
	paper := map[int][2]float64{2: {1.98, 3.8}, 4: {3.90, 7.6}, 8: {5.54, 13.6},
		16: {6.24, 16.1}, 32: {5.99, 15.8}, 64: {5.56, 13.6}}
	for _, th := range []int{2, 4, 8, 16, 32, 64} {
		p := paper[th]
		mt.AddRowf(th, machine.Table4Speedup(machine.Mira, th),
			machine.Table4Traffic(machine.Mira, th), p[0], p[1])
	}
	mt.Write(os.Stdout)
	fmt.Println()
}
