package main

import (
	"math"
	"runtime"
	"time"

	"channeldns/internal/banded"
	"channeldns/internal/bspline"
	"channeldns/internal/fft"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/parfft"
	"channeldns/internal/pencil"
	"channeldns/internal/schedule"
)

// The traced pass's third part: each lower layer's public functions timed
// directly at the workload's shapes, normalised like everything else so a
// layer's number can be set against step_ms.

// Which optional layers a workload exercises decides which metrics are
// measured; the others are emitted as 0. The wire (sp.tcp) and the pool
// (sp.threads > 1) are facts of the workload's configuration; whether the
// wall-normal kernels run is read off the CPU profile of the rounds.
func usesBanded(cpuShares map[string]float64) bool {
	return cpuShares["banded"]+cpuShares["bspline"] > 0
}

// opTimer times one operation as batches bracketed by ruler readings.
// With a communicator every rank must call it with the same fn; rank 0
// sizes the batch and tells the others.
type opTimer struct {
	c       *mpi.Comm // nil for local work
	rl      *ruler
	batch   time.Duration
	samples int
}

// newOpTimer sizes the batches: 4 x 12 ms per operation, or a token amount
// at the smoke size.
func newOpTimer(c *mpi.Comm, rl *ruler, smoke bool) opTimer {
	if smoke {
		return opTimer{c: c, rl: rl, batch: time.Millisecond, samples: 2}
	}
	return opTimer{c: c, rl: rl, batch: 12 * time.Millisecond, samples: 4}
}

func (t opTimer) barrier() {
	if t.c != nil {
		t.c.Barrier()
	}
}

// nsPerCall returns fn's normalised nanoseconds per call (median batch).
func (t opTimer) nsPerCall(fn func()) float64 {
	fn() // warm: lazy plans, caches
	t.barrier()
	t0 := time.Now()
	fn()
	t.barrier()
	reps := int(math.Ceil(float64(t.batch) / float64(max(time.Since(t0), time.Microsecond))))
	reps = max(1, min(reps, 200000))
	if t.c != nil {
		reps = mpi.Bcast(t.c, 0, []int{reps})[0]
	}
	var norm []float64
	r0 := t.rl.read()
	for s := 0; s < t.samples; s++ {
		t.barrier()
		a := now()
		for i := 0; i < reps; i++ {
			fn()
		}
		t.barrier()
		b := now()
		r1 := t.rl.read()
		norm = append(norm, newSample(a, b, r0, r1).ms()*1e6/float64(reps))
		r0 = r1
	}
	return median(norm)
}

// worldLayers times the layers that need the workload's communicator:
// pencil transposes, the parallel FFT cycle and, over the wire, the
// exchanges under them. Every rank runs it; rank 0 records.
func worldLayers(c *mpi.Comm, rl *ruler, sp solverSpec, out *solverOut) {
	m := map[string]float64{}
	tm := newOpTimer(c, rl, sp.smoke)
	var pool *par.Pool
	if sp.threads > 0 {
		pool = par.NewPool(sp.threads)
		defer pool.Close()
	}
	nkx, mz := sp.nx/2, 3*sp.nz/2
	nf := sp.fields

	// The four transposes of the nonlinear path at the padded z length,
	// with preallocated destinations (the solver's steady state).
	d := pencil.New(c, sp.pa, sp.pb, nkx, sp.nz, sp.ny, pool)
	yp := pencil.AllocFields(nf, d.YPencilLen())
	for f := range yp {
		for i := range yp[f] {
			yp[f][i] = complex(float64(i%11), float64(f))
		}
	}
	zp := pencil.AllocFields(nf, d.ZPencilLen(d.NZ))
	zpad := pencil.AllocFields(nf, d.ZPencilLen(mz))
	xp := pencil.AllocFields(nf, d.XPencilLen(mz))
	m["pencil.ytoz_us"] = tm.nsPerCall(func() { d.YtoZ(zp, yp) }) / 1e3
	m["pencil.ztoy_us"] = tm.nsPerCall(func() { d.ZtoY(yp, zp) }) / 1e3
	m["pencil.ztox_us"] = tm.nsPerCall(func() { d.ZtoX(xp, zpad, mz) }) / 1e3
	m["pencil.xtoz_us"] = tm.nsPerCall(func() { d.XtoZ(zpad, xp, mz) }) / 1e3
	dp := pencil.New(c, sp.pa, sp.pb, nkx, sp.nz, sp.ny, pool)
	dp.Overlap = true
	m["pencil.ytoz_pipelined_us"] = tm.nsPerCall(func() { dp.YtoZPipelined(zp, yp, nil) }) / 1e3
	cycle := func() {
		d.YtoZ(zp, yp)
		d.ZtoX(xp, zpad, mz)
		d.XtoZ(zpad, xp, mz)
		d.ZtoY(yp, zp)
	}
	c.Barrier()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const cycles = 8
	for i := 0; i < cycles; i++ {
		cycle()
	}
	c.Barrier()
	runtime.ReadMemStats(&ms1)
	m["pencil.allocs_per_cycle"] = float64(ms1.Mallocs-ms0.Mallocs) / cycles / float64(c.Size())

	// The on-node reorder at one field's local size: bytes read + written.
	ni, nj, nk := sp.ny, nkx, sp.nz/c.Size()
	src := make([]complex128, ni*nj*nk)
	dst := make([]complex128, ni*nj*nk)
	ns := tm.nsPerCall(func() { pencil.Reorder(dst, src, ni, nj, nk, pool) })
	m["pencil.reorder_gbps"] = 2 * 16 * float64(len(src)) / ns

	// Table 6's kernel pair on the same grid.
	custom := parfft.NewCustom(c, sp.pa, sp.pb, sp.nx, sp.ny, sp.nz, pool)
	fields := pencil.AllocFields(nf, custom.YPencilLen())
	var split parfft.Timings
	m["parfft.cycle_us"] = tm.nsPerCall(func() { _, split = custom.Cycle(fields) }) / 1e3
	m["parfft.transpose_frac"] = split.Transpose.Seconds() / split.Total().Seconds()
	base := parfft.NewBaseline(c, sp.pa, sp.pb, sp.nx, sp.ny, sp.nz)
	bfields := pencil.AllocFields(nf, base.YPencilLen())
	m["parfft.cycle_baseline_us"] = tm.nsPerCall(func() { base.Cycle(bfields) }) / 1e3

	if sp.tcp {
		wireLayers(c, tm, m, nf*d.YPencilLen()/c.Size())
	}
	if c.Rank() == 0 {
		for k, v := range m {
			out.layer[k] = v
		}
	}
}

// wireLayers times the exchanges under the transposes with blocks of the
// transposes' size: the one-shot alltoallv, the posted-receive stream
// exchange and a barrier.
func wireLayers(c *mpi.Comm, tm opTimer, m map[string]float64, block int) {
	p := c.Size()
	counts, displs := make([]int, p), make([]int, p)
	for r := range counts {
		counts[r], displs[r] = block, r*block
	}
	send := make([]complex128, p*block)
	recv := make([]complex128, p*block)
	m["mpi.alltoallv_us"] = tm.nsPerCall(func() {
		// Counts match on every rank, so the mismatch error cannot occur.
		recv, _ = mpi.AlltoallvInto(c, recv, send, counts, displs, counts, displs)
	}) / 1e3
	st := mpi.NewStream(c, p)
	m["mpi.stream_exchange_us"] = tm.nsPerCall(func() {
		for r := 0; r < p; r++ {
			if r != c.Rank() {
				st.Post(r)
			}
		}
		for r := 0; r < p; r++ {
			if r != c.Rank() {
				mpi.StreamSend(c, r, send[displs[r]:displs[r]+block])
			}
		}
		for st.Outstanding() > 0 {
			st.Next()
		}
		st.Reset()
	}) / 1e3
	m["mpi.barrier_us"] = tm.nsPerCall(c.Barrier) / 1e3
}

// localLayers times the layers that need no communicator — fft, banded,
// bspline, par — and derives the roofline figures. It runs after the world
// has shut down, on the calling goroutine.
func localLayers(m map[string]float64, sp solverSpec, banded bool) {
	tm := newOpTimer(nil, newRuler(1), sp.smoke)

	// fft: the line transforms of one step at this grid's lengths.
	nz, mz, nkx, mx := sp.nz, 3*sp.nz/2, sp.nx/2, 3*sp.nx/2
	cplan := fft.NewPlan(nz)
	cin, cout := make([]complex128, nz), make([]complex128, nz)
	for i := range cin {
		cin[i] = complex(float64(i%7), float64(i%3))
	}
	m["fft.complex_line_ns"] = tm.nsPerCall(func() { cplan.Forward(cout, cin) })
	rplan := fft.NewRealPlan(sp.nx)
	rin, rout := make([]float64, sp.nx), make([]complex128, rplan.NumModes())
	rscr := make([]complex128, rplan.ScratchLen())
	m["fft.real_line_ns"] = tm.nsPerCall(func() { rplan.ForwardScratch(rout, rin, rscr) })
	padX := fft.NewPaddedReal(nkx, mx)
	xspec, xphys := make([]complex128, nkx), make([]float64, mx)
	xscr := make([]complex128, padX.ScratchLen())
	for i := range xspec {
		xspec[i] = complex(float64(i%5), float64(i%2))
	}
	m["fft.padded_real_inv_ns"] = tm.nsPerCall(func() { padX.InversePaddedScratch(xphys, xspec, xscr) })
	m["fft.padded_real_fwd_ns"] = tm.nsPerCall(func() { padX.ForwardTruncatedScratch(xspec, xphys, xscr) })
	padZ := fft.NewPaddedComplex(nz, mz)
	zspec, zphys := make([]complex128, nz), make([]complex128, mz)
	zscr := make([]complex128, padZ.ScratchLen())
	m["fft.padded_complex_inv_ns"] = tm.nsPerCall(func() { padZ.InversePaddedScratch(zphys, zspec, zscr) })
	m["fft.padded_complex_fwd_ns"] = tm.nsPerCall(func() { padZ.ForwardTruncatedScratch(zspec, zphys, zscr) })
	// Rate over the four padded transforms, flops as the schedule counts
	// them; the bound is the measured multiply-add peak, and the bandwidth
	// side only where the triad arrays satisfy the 4x-LLC rule.
	flops := 2 * (schedule.FFTFlops(mx, true) + schedule.FFTFlops(mz, false))
	ns := m["fft.padded_real_inv_ns"] + m["fft.padded_real_fwd_ns"] + m["fft.padded_complex_inv_ns"] + m["fft.padded_complex_fwd_ns"]
	m["fft.gflops"] = flops / ns
	bound := m["host.fma_gflops"]
	if llc := m["host.llc_bytes"]; llc > 0 && triadArrayBytes >= 4*llc {
		bytes := 2 * 16 * float64(2*mx/2+2*mz) // each line read and written once
		bound = math.Min(bound, m["host.triad_gbps"]*flops/bytes)
	}
	if bound > 0 {
		m["fft.roofline_frac"] = m["fft.gflops"] / bound
	}

	if banded {
		bandedLayers(tm, m, sp.ny)
	}
	if sp.threads > 1 {
		for _, w := range []int{1, 2} {
			pool := par.NewPool(w)
			ns := tm.nsPerCall(func() { pool.For(w, func(int) {}) })
			pool.Close()
			m["par.for_overhead_ns.w"+string(rune('0'+w))] = ns
		}
	}
}

// bandedLayers times the wall-normal kernels at ny points: one Helmholtz
// operator (B0 - c(B2 - k^2 B0) at the Greville points) assembled through
// the public collocation rows, factored and solved with the compact solver
// and with the general pivoted one.
func bandedLayers(tm opTimer, m map[string]float64, ny int) {
	const degree = 7
	basis := bspline.NewFromBreakpoints(degree, bspline.ChannelBreakpoints(ny-degree, 0.85))
	grev := basis.Greville()
	const coef, k2 = 1e-4, 9.0
	assemble := func(set func(i, j int, v float64)) {
		for i, u := range grev {
			start, ders := basis.RowAt(u, 2)
			for j := 0; j <= degree; j++ {
				set(i, start+j, ders[0][j]-coef*(ders[2][j]-k2*ders[0][j]))
			}
		}
	}
	m["bspline.collocation_build_us"] = tm.nsPerCall(func() {
		for d := 0; d <= 2; d++ {
			basis.CollocationMatrix(grev, d)
		}
	}) / 1e3
	ders := make([][]float64, 3)
	for i := range ders {
		ders[i] = make([]float64, degree+1)
	}
	u := grev[ny/2]
	m["bspline.eval_derivs_ns"] = tm.nsPerCall(func() { basis.EvalDerivs(u, 2, ders) })

	m["banded.factor_us"] = tm.nsPerCall(func() {
		c := banded.NewCompact(ny, degree)
		assemble(c.Set)
		if err := c.Factor(); err != nil {
			panic(err) // the operator is diagonally dominant by construction
		}
	}) / 1e3
	compact := banded.NewCompact(ny, degree)
	assemble(compact.Set)
	general := banded.NewReal(ny, degree, degree)
	assemble(general.Set)
	if compact.Factor() != nil || general.Factor() != nil {
		return
	}
	rhs, b := make([]complex128, ny), make([]complex128, ny)
	for i := range rhs {
		rhs[i] = complex(float64(i%17)-8, float64(i%11)-5)
	}
	m["banded.solve_complex_ns"] = tm.nsPerCall(func() { copy(b, rhs); compact.SolveComplex(b) })
	gen := tm.nsPerCall(func() { copy(b, rhs); general.SolveComplexTwoReal(b) })
	m["banded.solve_vs_general"] = m["banded.solve_complex_ns"] / gen
	// Computed, not measured: the factor's floats plus the right-hand side
	// read and written.
	m["banded.bytes_per_solve"] = float64(8*compact.StorageFloats() + 2*16*ny)
}
