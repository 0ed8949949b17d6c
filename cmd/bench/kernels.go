package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"channeldns/internal/banded"
	"channeldns/internal/fft"
	"channeldns/internal/machine"
	"channeldns/internal/par"
	"channeldns/internal/pencil"
)

// Tables 1-4 time single-node kernels whole (no phase spans fire), so their
// reports carry the measured ratios and rates as metrics only.

// fillBanded sets every in-band entry of an n x n system of half-bandwidth
// h: next() off the diagonal and 4h+8 more on it, so the system is diagonally
// dominant and factors without pivoting trouble. It returns a complex
// right-hand side to go with it.
func fillBanded(n, h int, set func(i, j int, v float64), next func() float64) []complex128 {
	for i := 0; i < n; i++ {
		for j := max(0, i-h); j <= min(n-1, i+h); j++ {
			v := next()
			if i == j {
				v += float64(4*h + 8)
			}
			set(i, j, v)
		}
	}
	rhs := make([]complex128, n)
	for i := range rhs {
		rhs[i] = complex(float64(i%17)-8, float64(i%11)-5)
	}
	return rhs
}

// solvers names Table 1's columns in print order; the last is the reference
// the others are normalized by.
var solvers = []string{"gbr", "gbc", "custom", "naive"}

// solveSeconds is one solver's factor-plus-solve time on the same random
// system, the minimum over reps runs:
//
//	gbr     real banded LU + two sequential real solves  (paper "MKL^R")
//	gbc     complex banded LU                            (paper "MKL^C")
//	custom  compact bordered-band solver, real x complex (paper "Custom")
//	naive   reference complex banded routine             (paper "Netlib LAPACK")
func solveSeconds(solver string, n, h, reps int) (float64, error) {
	best := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		var set func(i, j int, v float64)
		var factor func() error
		var solve func([]complex128)
		switch solver {
		case "gbr":
			m := banded.NewReal(n, h, h)
			set, factor, solve = m.Set, m.Factor, m.SolveComplexTwoReal
		case "gbc":
			m := banded.NewComplex(n, h, h)
			set, factor, solve = func(i, j int, v float64) { m.Set(i, j, complex(v, 0)) }, m.Factor, m.Solve
		case "custom":
			m := banded.NewCompact(n, h)
			set, factor, solve = m.Set, m.Factor, m.SolveComplex
		case "naive":
			m := banded.NewNaive(n, h, h)
			set, factor, solve = func(i, j int, v float64) { m.Set(i, j, complex(v, 0)) }, m.Factor, m.Solve
		}
		rhs := fillBanded(n, h, set, rand.New(rand.NewSource(42)).NormFloat64)
		t0 := time.Now()
		if err := factor(); err != nil {
			return 0, err
		}
		solve(rhs)
		best = min(best, time.Since(t0))
	}
	return best.Seconds(), nil
}

// solverTable prints Table 1 beside the paper's Lonestar columns.
func solverTable(b *bench) error {
	tbl := newTable(fmt.Sprintf("Table 1: banded solver comparison, N=%d (normalized by reference complex banded solver)", b.n),
		"bw", "GB^R", "GB^C", "Custom", "paper MKL^R", "paper MKL^C", "paper Custom")
	metrics := map[string]float64{}
	for _, row := range machine.Table1Paper {
		var secs [4]float64
		for s, solver := range solvers {
			var err error
			if secs[s], err = solveSeconds(solver, b.n, (row.Bandwidth-1)/2, b.reps); err != nil {
				return err
			}
		}
		norm := secs[3]
		tbl.Row(row.Bandwidth, secs[0]/norm, secs[1]/norm, secs[2]/norm, row.LonestarR, row.LonestarC, row.LonestarCustom)
		for s, solver := range solvers[:3] {
			metrics[fmt.Sprintf("%s_over_naive_bw%d", solver, row.Bandwidth)] = secs[s] / norm
		}
		metrics[fmt.Sprintf("naive_seconds_bw%d", row.Bandwidth)] = norm
	}
	tbl.Write(b.out)
	fmt.Fprintln(b.out, "\nPaper reference columns are Lonestar values; see EXPERIMENTS.md for the shape criteria.")
	return b.writeSweep("table1", "", map[string]string{"n": fmt.Sprint(b.n), "reps": fmt.Sprint(b.reps)}, metrics, nil, nil)
}

// nodeTables prints the table asked for out of 2, 3 and 4 — all three when a
// report is wanted, table2_3_4 being one report — each measured on this
// machine with goroutine pools standing in for OpenMP threads, then as the
// calibrated Mira model beside the paper's numbers.
func nodeTables(b *bench) error {
	metrics := map[string]float64{}
	for i, table := range []func(io.Writer, map[string]float64){table2, table3, table4} {
		if fmt.Sprint(i+2) == b.table || b.jsonPath != "" {
			table(b.out, metrics)
		}
	}
	return b.writeSweep("table2_3_4", "", map[string]string{
		"ns_kernel": "nw=1024 ny=256 h=7", "fft_kernel": "512 lines of n=1024", "reorder": "64x96x64 x8 reps",
	}, metrics, nil, nil)
}

// nsKernel runs the time-advance linear algebra, one compact system factored
// and solved per wavenumber, over a pool; it returns elapsed time and flops.
func nsKernel(pool *par.Pool, nw, ny, h int) (time.Duration, int64) {
	mats := make([]*banded.Compact, nw)
	rhs := make([][]complex128, nw)
	for w := range mats {
		mats[w] = banded.NewCompact(ny, h)
		rhs[w] = fillBanded(ny, h, mats[w].Set, func() float64 { return 0.1 })
	}
	t0 := time.Now()
	pool.For(nw, func(w int) {
		if err := mats[w].Factor(); err != nil {
			panic(err) // diagonally dominant by construction
		}
		mats[w].SolveComplex(rhs[w])
	})
	// Flop count: LU ~ ny*(2h+1)*h mults+adds; solve ~ 2 passes x (2h+1)
	// x ny x 2 (real x complex).
	return time.Since(t0), int64(nw) * int64(ny) * int64((2*h+1)*h*2+2*(2*h+1)*4)
}

func fftKernel(pool *par.Pool, lines, n int) time.Duration {
	plan := fft.NewPlan(n)
	data := make([]complex128, lines*n)
	for i := range data {
		data[i] = complex(float64(i%13), float64(i%7))
	}
	t0 := time.Now()
	pool.For(lines, func(l int) { plan.Forward(data[l*n:(l+1)*n], data[l*n:(l+1)*n]) })
	return time.Since(t0)
}

func table2(w io.Writer, metrics map[string]float64) {
	fmt.Fprintln(w, "Table 2: single-core N-S time advance characterization")
	fmt.Fprintln(w, "\n-- measured on this machine (software counters) --")
	el, flops := nsKernel(par.NewPool(1), 2048, 256, 7)
	metrics["ns_gflops_1core"] = float64(flops) / el.Seconds() / 1e9
	fmt.Fprintf(w, "GFlops: %.2f   elapsed: %v\n", metrics["ns_gflops_1core"], el)

	fmt.Fprintln(w, "\n-- Mira model vs paper --")
	tbl := newTable("", "", "GFlops", "frac peak", "DDR B/cycle", "elapsed ratio")
	rows := machine.Table2(machine.Mira) // the SIMD / no-SIMD pair, in that order
	for i, name := range []string{"SIMD", "No SIMD"} {
		tbl.Row(name, rows[i].GFlops, rows[i].FracPeak, rows[i].DDRBytesCycle, rows[i].Elapsed/rows[1].Elapsed)
	}
	tbl.Row("paper SIMD", "4.96", "0.388", "14.2", "1.19")
	tbl.Row("paper NoSIMD", "1.16", "0.0905", "16.8", "1.00")
	tbl.Write(w)
	fmt.Fprintln(w)
}

// The thread counts of the paper's Tables 3 and 4, and the worker counts
// their measured halves sweep.
var (
	paperThreads = []int{2, 4, 8, 16, 32, 64}
	liveWorkers  = []int{2, 4, 8}
)

func table3(w io.Writer, metrics map[string]float64) {
	fmt.Fprintln(w, "Table 3: single-node threading speedup (FFT / N-S advance)")
	fmt.Fprintln(w, "\n-- measured on this machine --")
	tbl := newTable("", "workers", "FFT speedup", "N-S speedup")
	baseF := fftKernel(par.NewPool(1), 512, 1024)
	baseN, _ := nsKernel(par.NewPool(1), 1024, 256, 7)
	for _, nw := range liveWorkers {
		f := baseF.Seconds() / fftKernel(par.NewPool(nw), 512, 1024).Seconds()
		elN, _ := nsKernel(par.NewPool(nw), 1024, 256, 7)
		n := baseN.Seconds() / elN.Seconds()
		tbl.Row(nw, f, n)
		metrics[fmt.Sprintf("fft_speedup_%dworkers", nw)] = f
		metrics[fmt.Sprintf("ns_speedup_%dworkers", nw)] = n
	}
	tbl.Write(w)

	fmt.Fprintln(w, "\n-- Mira model vs paper (speedup) --")
	mt := newTable("", "threads", "model", "paper FFT", "paper N-S")
	paper := [][2]float64{{1.99, 2.00}, {3.96, 4.00}, {7.88, 7.97}, {15.4, 15.9}, {27.6, 29.9}, {32.6, 34.5}}
	for i, th := range paperThreads {
		mt.Row(th, machine.Table3Speedup(machine.Mira, th), paper[i][0], paper[i][1])
	}
	mt.Write(w)
	fmt.Fprintln(w)
}

func table4(w io.Writer, metrics map[string]float64) {
	fmt.Fprintln(w, "Table 4: on-node data reordering")
	fmt.Fprintln(w, "\n-- measured on this machine --")
	ni, nj, nk := 64, 96, 64
	src := make([]complex128, ni*nj*nk)
	dst := make([]complex128, ni*nj*nk)
	for i := range src {
		src[i] = complex(float64(i), 0)
	}
	reorder := func(workers int) float64 {
		pool := par.NewPool(workers)
		t0 := time.Now()
		for r := 0; r < 8; r++ {
			pencil.Reorder(dst, src, ni, nj, nk, pool)
		}
		return time.Since(t0).Seconds()
	}
	base := reorder(1)
	tbl := newTable("", "workers", "speedup")
	for _, nw := range liveWorkers {
		s := base / reorder(nw)
		tbl.Row(nw, s)
		metrics[fmt.Sprintf("reorder_speedup_%dworkers", nw)] = s
	}
	tbl.Write(w)

	fmt.Fprintln(w, "\n-- Mira model vs paper --")
	mt := newTable("", "threads", "model speedup", "model B/cycle", "paper speedup", "paper B/cycle")
	paper := [][2]float64{{1.98, 3.8}, {3.90, 7.6}, {5.54, 13.6}, {6.24, 16.1}, {5.99, 15.8}, {5.56, 13.6}}
	for i, th := range paperThreads {
		mt.Row(th, machine.Table4Speedup(machine.Mira, th), machine.Table4Traffic(machine.Mira, th), paper[i][0], paper[i][1])
	}
	mt.Write(w)
	fmt.Fprintln(w)
}
