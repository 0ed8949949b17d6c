// Command bench-solver regenerates Table 1 of the paper: elapsed time for
// solving the bordered-banded collocation systems with the customized
// compact solver versus general banded solvers, normalized by the reference
// (Netlib-style) complex banded routine.
//
// Columns measured live on this machine:
//
//	GB^R    real banded LU + two sequential real solves   (paper "MKL^R")
//	GB^C    complex banded LU                              (paper "MKL^C")
//	Custom  compact bordered-band solver, real x complex   (paper "Custom")
//
// all normalized by the Naive reference solver (paper "Netlib LAPACK").
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"channeldns/internal/banded"
	"channeldns/internal/machine"
	"channeldns/internal/perf"
	"channeldns/internal/telemetry"
)

func main() {
	n := flag.Int("n", 1024, "system size")
	reps := flag.Int("reps", 5, "repetitions (minimum time kept)")
	jsonPath := flag.String("json", "", "write a telemetry report of the measured ratios to this file")
	flag.Parse()

	tbl := perf.Table{
		Title:   fmt.Sprintf("Table 1: banded solver comparison, N=%d (normalized by reference complex banded solver)", *n),
		Headers: []string{"bw", "GB^R", "GB^C", "Custom", "paper MKL^R", "paper MKL^C", "paper Custom"},
	}
	metrics := map[string]float64{}
	for _, row := range machine.Table1Paper {
		h := (row.Bandwidth - 1) / 2
		tR := timeIt(*reps, func() time.Duration { return solveRealTwo(*n, h) })
		tC := timeIt(*reps, func() time.Duration { return solveComplex(*n, h) })
		tK := timeIt(*reps, func() time.Duration { return solveCompact(*n, h) })
		tN := timeIt(*reps, func() time.Duration { return solveNaive(*n, h) })
		norm := tN.Seconds()
		tbl.AddRowf(row.Bandwidth,
			tR.Seconds()/norm, tC.Seconds()/norm, tK.Seconds()/norm,
			row.LonestarR, row.LonestarC, row.LonestarCustom)
		metrics[fmt.Sprintf("gbr_over_naive_bw%d", row.Bandwidth)] = tR.Seconds() / norm
		metrics[fmt.Sprintf("gbc_over_naive_bw%d", row.Bandwidth)] = tC.Seconds() / norm
		metrics[fmt.Sprintf("custom_over_naive_bw%d", row.Bandwidth)] = tK.Seconds() / norm
		metrics[fmt.Sprintf("naive_seconds_bw%d", row.Bandwidth)] = norm
	}
	if err := tbl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("\nPaper reference columns are Lonestar values; see EXPERIMENTS.md for the shape criteria.")

	if *jsonPath != "" {
		// No phase timers fire here — the solver kernels are timed whole —
		// so the report carries the normalized ratios as metrics.
		rep := telemetry.NewReport("table1", telemetry.NewRegistry(), map[string]string{
			"n": fmt.Sprint(*n), "reps": fmt.Sprint(*reps),
		})
		rep.Metrics = metrics
		perf.WriteReport(rep, *jsonPath)
	}
}

func timeIt(reps int, f func() time.Duration) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		if d := f(); d < best {
			best = d
		}
	}
	return best
}

func fillSystem(n, h int, set func(i, j int, v float64)) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		for j := max(0, i-h); j <= min(n-1, i+h); j++ {
			v := rng.NormFloat64()
			if i == j {
				v += float64(4*h + 8)
			}
			set(i, j, v)
		}
	}
}

func rhsComplex(n int) []complex128 {
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(float64(i%17)-8, float64(i%11)-5)
	}
	return b
}

func solveRealTwo(n, h int) time.Duration {
	m := banded.NewReal(n, h, h)
	fillSystem(n, h, m.Set)
	b := rhsComplex(n)
	t0 := time.Now()
	if err := m.Factor(); err != nil {
		panic(err)
	}
	m.SolveComplexTwoReal(b)
	return time.Since(t0)
}

func solveComplex(n, h int) time.Duration {
	m := banded.NewComplex(n, h, h)
	fillSystem(n, h, func(i, j int, v float64) { m.Set(i, j, complex(v, 0)) })
	b := rhsComplex(n)
	t0 := time.Now()
	if err := m.Factor(); err != nil {
		panic(err)
	}
	m.Solve(b)
	return time.Since(t0)
}

func solveCompact(n, h int) time.Duration {
	m := banded.NewCompact(n, h)
	fillSystem(n, h, m.Set)
	b := rhsComplex(n)
	t0 := time.Now()
	if err := m.Factor(); err != nil {
		panic(err)
	}
	m.SolveComplex(b)
	return time.Since(t0)
}

func solveNaive(n, h int) time.Duration {
	m := banded.NewNaive(n, h, h)
	fillSystem(n, h, func(i, j int, v float64) { m.Set(i, j, complex(v, 0)) })
	b := rhsComplex(n)
	t0 := time.Now()
	if err := m.Factor(); err != nil {
		panic(err)
	}
	m.Solve(b)
	return time.Since(t0)
}
