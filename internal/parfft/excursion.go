package parfft

import (
	"math"

	"channeldns/internal/fft"
	"channeldns/internal/pencil"
	"channeldns/internal/telemetry"
)

// The solvers' dealiased excursion, paper §2.3 steps (a)-(h): fields leave
// the y-pencils, are zero-padded to the 3/2 quadrature grid and inverse
// transformed in z, cross to x-pencils, and in one threaded block per x line
// (so the line stays in cache, as in the paper) are inverse transformed,
// multiplied pointwise and forward transformed; the products then retrace the
// path with truncation. Unlike Kernel — the unpadded Table 6 program — this
// is the pipeline every solver's nonlinear term runs through, written once:
// a pass is described by a Spec and the Excursion owns everything else.

// Spec describes one pass through an Excursion.
type Spec struct {
	// In fields go out; the first Grad of them also carry an i*kz derivative
	// from the z stage on and an i*kx derivative on the x line; Out fields
	// come back.
	In, Grad, Out int
	// Kernel fills out with product c (0 <= c < Out) on a block of physical
	// x lines: phys holds the In fields, dz and dx the z and x derivatives of
	// the first Grad of them, so a kernel reads the same lines whatever fields
	// a caller appends to In. Every operand, out included, holds the block's
	// nb lines point-interleaved (point i of line b at i*nb + b) and has
	// len(out) elements, so a kernel must be pointwise: out[i] may depend on
	// the operands' element i only. The excursion forward-transforms out
	// after each call.
	Kernel func(out []float64, c int, phys, dz, dx [][]float64)
}

// Indices of the six independent components of u_i*u_j that SixProducts
// brings back.
const (
	UU = iota
	UV
	UW
	VV
	VW
	WW
	NumProducts
)

// SixProducts is the divergence-form pass: u, v, w out, the six quadratic
// products back. The paper folds them into five; DESIGN.md has the
// accounting difference, which the machine model normalizes.
var SixProducts = Spec{In: 3, Out: NumProducts, Kernel: sixProducts}

var productPairs = [NumProducts][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}}

func sixProducts(out []float64, c int, phys, _, _ [][]float64) {
	a, b := phys[productPairs[c][0]][:len(out)], phys[productPairs[c][1]][:len(out)]
	for i := range out {
		out[i] = a[i] * b[i]
	}
}

// Excursion runs dealiased passes over one decomposition. It owns the
// pipeline field buffers and the per-worker line scratch, sized once for the
// largest registered Spec — the allocation-discipline analog of the paper's
// 1x communication buffers (§4.3) — so a pass allocates nothing beyond the
// pool's closure headers.
//
// The field buffers are one pool per pencil shape, and output f of a pass
// takes input f's array: no transpose reads and writes one pool, the z
// inverse is done with zs (or y) before the z forward writes it, and an x
// block reads all of its input lines into scratch before it writes an output
// line. Every stage fully overwrites the elements it later reads, so passes
// of different Specs share the pools, and In, which holds the last pass's
// products, must be written whole by its caller.
//
// Each hook hands the transforms runs of adjacent lines, at most the padded
// transform's Batch() at a time, through the batched entries: a run goes
// through every FFT stage together, lines innermost, and on the x line the
// run is one point-interleaved block from the inverse transforms through the
// Kernel to the forward ones.
//
// A transpose inside a one-rank communicator moves each element by a fixed
// index map, so there the excursion does not run it: the transforms read and
// write the pencils where they sit, through the batched entries' strided
// layouts, and the plan only books the call (pencil.TransposePlan.Book). The
// fold is chosen per communicator from the process grid: with PB == 1 the z
// stages read and write the y-pencils, so there is no zs pool. With PA == 1
// a y plane's padded z lines and its x lines are the same elements, so the
// whole padded part of a pass runs one y-slab at a time inside one pool
// block (slabBlock): a worker z-inverse transforms the slab's lines into its
// own slab buffer, runs the slab's x lines in place, and z-forward
// transforms the products straight back, and there is neither a zp nor an
// xp pool. Each stage has one body over lines views (zInverse, xLines,
// zForward), which the slab and the stage-at-a-time schedule both call.
//
// With PA > 1 every transpose completes before the stage that follows it
// runs over all of its lines: the blocking exchange of the paper. The
// stages' pool-block bodies are method values bound at construction.
type Excursion struct {
	d        *pencil.Decomp
	padZ     *fft.PaddedComplex
	padX     *fft.PaddedReal
	ikz, ikx []complex128
	tel      *telemetry.Collector
	// nbz and nbx are the z and x batch widths: the most lines a hook hands
	// one batched call.
	nbz, nbx int

	// Local extents: kx lines and y planes of the z-pencils, z lines per y
	// plane of the x-pencils, and the first global y index.
	kxLoc, nyLoc, nzLoc, yLo0 int

	// Field pools: y-pencils, z-pencils at nz, padded z-pencils at mz and
	// x-pencils at mz. Over the registered Specs, y and zs hold the most
	// max(In, Out) fields, zp and xp (or, when foldA, each worker's slab) the
	// most max(In+Grad, Out). zs is empty when foldB, zp and xp when foldA.
	y, zs, zp, xp [][]complex128
	workers       []excursionWorker

	// foldA and foldB say CommA and CommB have one rank. The stage-at-a-time
	// schedule's z stages read and write the spectral lines zl and the
	// padded lines zpl, its x stage the lines xl.
	foldA, foldB bool
	zl, zpl, xl  lines

	// Per-y maxima of the last harvesting pass, folded from the workers'
	// maxima once the pass's pool loops have returned.
	maxAbs [3][]float64

	// The pass in flight, read by the pool-block bodies; harvest says it
	// records MaxAbs. slabSpan hands block 0 of a slab loop the fft_inverse
	// span Run opened before the loop, and hands Run back the fft_forward
	// span block 0 leaves open, so the loop's whole wall time is booked.
	spec                            *Spec
	harvest                         bool
	slabSpan                        telemetry.Span
	zInvBlk, xBlk, zFwdBlk, slabBlk func(blk, lo, hi int)
}

// slabPlanes is the most y planes a worker carries through a one-rank-CommA
// pass at a time. A slab's padded z lines, [kxLoc][planes][mz] a field, are
// its worker's slab buffer, so the heap grows with it, and a z run holds at
// most one kx's planes of a slab, so few planes cut the z batches short
// (padZ.Batch() is 14 lines at mz = 72). Serial 48x49x48 channel after two
// steps, 2-vCPU Xeon: heap in use 20.2 / 21.0 / 21.9 /
// 23.4 MiB at 1 / 4 / 8 / 14 planes (31.7 MiB with a padded z-pencil pool);
// the step time at each sat within the host's noise of the pool's (minimum
// of five four-step runs, three rounds: 134-170 ms against 145-164 ms).
const slabPlanes = 8

// lines addresses the lines of a set of fields: line l of field f
// starts at off + (l/div)*outer + (l%div)*inner of (*bufs)[f], and its
// elements lie stride apart. bufs points at an Excursion pool or a worker's
// slab, which Register grows.
type lines struct {
	bufs                           *[][]complex128
	off, div, outer, inner, stride int
}

// run returns field f from the start of line l on, the layout of the lines
// from l, and how many of the next n lines (n >= 1) that layout holds: the
// lines up to the next multiple of div, which lie inner apart, or all n when
// div == 1, outer apart.
func (v *lines) run(f, l, n int) ([]complex128, fft.Layout, int) {
	s := (*v.bufs)[f][v.off+(l/v.div)*v.outer+(l%v.div)*v.inner:]
	if v.div == 1 {
		return s, fft.Layout{Elem: v.stride, Line: v.outer}, n
	}
	return s, fft.Layout{Elem: v.stride, Line: v.inner}, min(n, v.div-l%v.div)
}

// zLines returns the spectral z lines of the local y planes [y0, y0+s),
// kx-major: line kx*s + y - y0.
func (e *Excursion) zLines(y0, s int) lines {
	nz := e.padZ.SpectralLen()
	if e.foldB {
		// The y-pencil column (kx, ., y): nyLoc == NY.
		return lines{&e.y, y0, s, nz * e.d.NY, 1, e.d.NY}
	}
	return lines{&e.zs, y0 * nz, s, e.nyLoc * nz, nz, 1}
}

// excursionWorker is one worker's private scratch, selected by the block id
// of ForBlocksIndexed. The line buffers hold a batch: zline nbz lines and
// xline nbx lines innermost, and phys and prod nbx point-interleaved lines.
type excursionWorker struct {
	zscr, zline []complex128 // z batch scratch, i*kz-multiplied lines
	xscr, xline []complex128 // x batch scratch, i*kx-multiplied lines
	phys        [][]float64  // physical x lines: In fields, Grad dz, Grad dx
	view        [][]float64  // phys cut to the block in flight
	prod        []float64
	lineMax     []float64 // per-line maxima of one harvested field
	maxAbs      [3][]float64
	// slab holds, when foldA, the padded z lines of the y-slab in flight,
	// [kxLoc][planes][mz] a field.
	slab [][]complex128
}

// NewExcursion builds the pipeline on d (whose Pool and instrumentation it
// uses) for the padded transform pair, sized for specs.
// ikz and ikx are the i*kz (per wrapped z mode) and i*kx (per one-sided x
// mode) multiplier lines; only Specs with Grad > 0 read them. tel may be nil.
func NewExcursion(d *pencil.Decomp, padZ *fft.PaddedComplex, padX *fft.PaddedReal,
	ikz, ikx []complex128, tel *telemetry.Collector, specs ...*Spec) *Excursion {
	e := &Excursion{d: d, padZ: padZ, padX: padX, ikz: ikz, ikx: ikx, tel: tel}
	kl, kh := d.KxRange()
	yl, yh := d.YRange()
	zl, zh := d.ZRangeX(padZ.PhysicalLen())
	e.kxLoc, e.nyLoc, e.nzLoc, e.yLo0 = kh-kl, yh-yl, zh-zl, yl
	e.nbz, e.nbx = padZ.Batch(), padX.Batch()
	nz, nkx, mz := padZ.SpectralLen(), padX.SpectralLen(), padZ.PhysicalLen()
	e.foldA, e.foldB = d.PA == 1, d.PB == 1
	e.zl = e.zLines(0, e.nyLoc)
	e.zpl, e.xl = lines{&e.zp, 0, 1, mz, 0, 1}, lines{&e.xp, 0, 1, nkx, 0, 1}
	e.zInvBlk, e.xBlk, e.zFwdBlk, e.slabBlk = e.zInvBlock, e.xBlock, e.zFwdBlock, e.slabBlock
	for c := range e.maxAbs {
		e.maxAbs[c] = make([]float64, d.NY)
	}
	e.workers = make([]excursionWorker, d.Pool.Workers())
	for i := range e.workers {
		w := &e.workers[i]
		w.zscr = make([]complex128, padZ.BatchScratchLen())
		w.zline = make([]complex128, nz*e.nbz)
		w.xscr = make([]complex128, padX.BatchScratchLen())
		w.xline = make([]complex128, nkx*e.nbx)
		w.prod = make([]float64, padX.PhysicalLen()*e.nbx)
		w.lineMax = make([]float64, e.nbx)
		for c := range w.maxAbs {
			w.maxAbs[c] = make([]float64, d.NY)
		}
	}
	for _, sp := range specs {
		e.Register(sp)
	}
	return e
}

// Register grows the pools to hold a pass of sp. Call it before the first
// Run of a Spec that NewExcursion was not given.
func (e *Excursion) Register(sp *Spec) {
	d := e.d
	nz, mz := e.padZ.SpectralLen(), e.padZ.PhysicalLen()
	grow := func(fields *[][]complex128, nf, n int) {
		for len(*fields) < nf {
			*fields = append(*fields, make([]complex128, n))
		}
	}
	nSpec, nPhys := max(sp.In, sp.Out), max(sp.In+sp.Grad, sp.Out)
	grow(&e.y, nSpec, d.YPencilLen())
	if !e.foldB {
		grow(&e.zs, nSpec, d.ZPencilLen(nz))
	}
	if !e.foldA {
		grow(&e.zp, nPhys, d.ZPencilLen(mz))
		grow(&e.xp, nPhys, d.XPencilLen(mz))
	}
	for i := range e.workers {
		w := &e.workers[i]
		if e.foldA {
			grow(&w.slab, nPhys, e.kxLoc*min(slabPlanes, e.nyLoc)*mz)
		}
		for len(w.phys) < sp.In+2*sp.Grad {
			w.phys = append(w.phys, make([]float64, e.padX.PhysicalLen()*e.nbx))
			w.view = append(w.view, nil)
		}
	}
}

// In returns the first n y-pencil input fields, layout [kxLoc][kzLoc][NY],
// for the caller to fill, every element, before Run: they hold its products.
func (e *Excursion) In(n int) [][]complex128 { return e.y[:n] }

// MaxAbs returns the per-y maxima of |phys[0..2]| from the last harvesting
// pass, indexed by global y (this rank's y range; zero elsewhere).
func (e *Excursion) MaxAbs() [3][]float64 { return e.maxAbs }

// Run carries In(sp.In) through one pass of sp and returns the sp.Out
// product fields in the y-pencil layout. Product f takes input f's array, so
// the result is valid until the caller next writes In or calls Run. With
// harvest set, the pass refreshes MaxAbs from its first three inputs, which
// must be the velocities; otherwise MaxAbs keeps the last harvesting pass's
// maxima.
func (e *Excursion) Run(sp *Spec, harvest bool) [][]complex128 {
	d := e.d
	mz := e.padZ.PhysicalLen()
	nd := sp.In + sp.Grad
	e.spec, e.harvest = sp, harvest
	if harvest {
		for i := range e.workers {
			for _, m := range e.workers[i].maxAbs {
				clear(m)
			}
		}
	}

	// (a)-(c) y-pencils -> z-pencils, the padded inverse z transform.
	e.transpose(e.foldB, pencil.DirYtoZ, d.NZ, sp.In, e.zs, e.y)
	if e.foldA {
		// (c)-(h) the padded z and x stages of one y-slab after another; the
		// z-pencils are the x-pencils, so both transposes are booked only.
		e.transpose(true, pencil.DirZtoX, mz, nd, nil, nil)
		e.slabSpan = e.tel.Begin(telemetry.PhaseFFTInverse)
		d.Pool.ForBlocksIndexed(e.nyLoc, e.slabBlk)
		e.slabSpan.End()
		e.transpose(true, pencil.DirXtoZ, mz, sp.Out, nil, nil)
	} else {
		e.stage(telemetry.PhaseFFTInverse, e.kxLoc*e.nyLoc, e.zInvBlk)

		// (d)-(g) z-pencils -> x-pencils, the fused x excursion.
		e.transpose(false, pencil.DirZtoX, mz, nd, e.xp, e.zp)
		e.stage(telemetry.PhaseNonlinear, e.nyLoc*e.nzLoc, e.xBlk)

		// (h) reverse path: x-pencils -> z-pencils, the truncated forward z
		// transform.
		e.transpose(false, pencil.DirXtoZ, mz, sp.Out, e.zp, e.xp)
		e.stage(telemetry.PhaseFFTForward, e.kxLoc*e.nyLoc, e.zFwdBlk)
	}
	// (h) z-pencils -> y-pencils.
	e.transpose(e.foldB, pencil.DirZtoY, d.NZ, sp.Out, e.y, e.zs)
	if harvest {
		for c, m := range e.maxAbs {
			clear(m)
			for i := range e.workers {
				for y, v := range e.workers[i].maxAbs[c] {
					m[y] = max(m[y], v)
				}
			}
		}
	}
	return e.y[:sp.Out]
}

// transpose moves the first nf fields of src to dst in direction dir. Where
// fold says the communicator has one rank, the stages address the pencils in
// place, so the plan only books the call.
func (e *Excursion) transpose(fold bool, dir pencil.TransposeDir, zLen, nf int, dst, src [][]complex128) {
	p := e.d.Plan(dir, zLen, nf)
	if fold {
		p.Book()
		return
	}
	p.Run(dst[:nf], src[:nf])
}

// stage runs one stage of the stage-at-a-time schedule over its n lines in
// a span of phase p.
func (e *Excursion) stage(p telemetry.Phase, n int, body func(blk, lo, hi int)) {
	sp := e.tel.Begin(p)
	e.d.Pool.ForBlocksIndexed(n, body)
	sp.End()
}

func (e *Excursion) zInvBlock(blk, lo, hi int) { e.zInverse(&e.workers[blk], &e.zl, &e.zpl, lo, hi) }

func (e *Excursion) xBlock(blk, lo, hi int) { e.xLines(&e.workers[blk], &e.xl, e.yLo0, lo, hi) }

func (e *Excursion) zFwdBlock(blk, lo, hi int) { e.zForward(&e.workers[blk], &e.zpl, &e.zl, lo, hi) }

// slabBlock carries the local y planes [lo, hi) through the padded part of a
// pass in slabs of at most slabPlanes planes, split evenly: per slab the z
// inverse from the spectral lines into the worker's slab buffer, the x lines
// of its planes in place, and the z forward back into the spectral lines.
// Only block 0 books the three phases' spans, so they tile the pass's wall
// time once: its first fft_inverse span is the one Run opened before the
// pool loop, and its last fft_forward span Run closes after the loop, so the
// dispatch and the wait for the other blocks are booked too.
func (e *Excursion) slabBlock(blk, lo, hi int) {
	w := &e.workers[blk]
	mz := e.padZ.PhysicalLen()
	var tel *telemetry.Collector
	var sp telemetry.Span
	if blk == 0 {
		tel, sp = e.tel, e.slabSpan
	}
	// Padded z line kx*s + y of a slab of s planes starts at (kx*s + y)*mz
	// of w.slab, so its x line y*mz + z is the column (., y, z), s*mz apart.
	pad := lines{&w.slab, 0, 1, mz, 0, 1}
	ns := (hi - lo + slabPlanes - 1) / slabPlanes
	for k := 0; k < ns; k++ {
		y0 := lo + k*(hi-lo)/ns
		s := lo + (k+1)*(hi-lo)/ns - y0
		spec := e.zLines(y0, s)
		x := lines{&w.slab, 0, 1, 1, 0, s * mz}
		if k > 0 {
			sp = tel.Begin(telemetry.PhaseFFTInverse)
		}
		e.zInverse(w, &spec, &pad, 0, e.kxLoc*s)
		sp.End()
		sp = tel.Begin(telemetry.PhaseNonlinear)
		e.xLines(w, &x, e.yLo0+y0, 0, s*mz)
		sp.End()
		sp = tel.Begin(telemetry.PhaseFFTForward)
		e.zForward(w, &pad, &spec, 0, e.kxLoc*s)
		if k < ns-1 {
			sp.End()
		}
	}
	if blk == 0 {
		e.slabSpan = sp
	}
}

// zInverse pads and inverse transforms in z the lines [lo, hi) of the In
// fields of spec into pad, and of the Grad fields' i*kz derivatives into
// the fields of pad behind them.
func (e *Excursion) zInverse(w *excursionWorker, spec, pad *lines, lo, hi int) {
	for f := 0; f < e.spec.In; f++ {
		for l := lo; l < hi; {
			s, sl, nb := spec.run(f, l, min(hi-l, e.nbz))
			phys, pl, _ := pad.run(f, l, nb)
			e.padZ.InversePaddedBatch(phys, pl, s, sl, nb, w.zscr)
			if f < e.spec.Grad {
				dz, _, _ := pad.run(e.spec.In+f, l, nb)
				e.padZ.InversePaddedBatch(dz, pl,
					derivative(w.zline, e.ikz, s, sl, nb), fft.Layout{Elem: nb, Line: 1}, nb, w.zscr)
			}
			l += nb
		}
	}
}

// derivative fills dst with the nb lines of spec (laid out by sl) times ik,
// mode by mode, lines innermost, and returns the filled part.
func derivative(dst, ik, spec []complex128, sl fft.Layout, nb int) []complex128 {
	dst = dst[:len(ik)*nb]
	for k, m := range ik {
		o := k * sl.Elem
		for b, row := 0, dst[k*nb:][:nb]; b < len(row); b++ {
			row[b] = m * spec[o]
			o += sl.Line
		}
	}
	return dst
}

// xLines runs the fused x excursion over the x lines [lo, hi) of xl, whose
// line l lies at global y yLo + l/nzLoc: inverse transforms, harvest,
// Kernel and forward transforms, one run of lines at a time.
func (e *Excursion) xLines(w *excursionWorker, xl *lines, yLo, lo, hi int) {
	sp := e.spec
	nd := sp.In + sp.Grad
	mx := e.padX.PhysicalLen()
	for l := lo; l < hi; {
		// x lines are all one stride apart (div == 1): any nb form a run.
		nb := min(hi-l, e.nbx)
		phys := fft.Layout{Elem: nb, Line: 1}
		view := w.view[:nd+sp.Grad]
		for f := range view {
			view[f] = w.phys[f][:mx*nb]
		}
		fields, dz, dx := view[:sp.In], view[sp.In:nd], view[nd:]
		for f := 0; f < nd; f++ {
			spec, sl, _ := xl.run(f, l, nb)
			e.padX.InversePaddedBatch(view[f], phys, spec, sl, nb, w.xscr)
			if f < sp.Grad {
				e.padX.InversePaddedBatch(dx[f], phys,
					derivative(w.xline, e.ikx, spec, sl, nb), fft.Layout{Elem: nb, Line: 1}, nb, w.xscr)
			}
		}
		if e.harvest {
			e.harvestLines(w, yLo, l, nb, fields)
		}
		prod := w.prod[:mx*nb]
		for c := 0; c < sp.Out; c++ {
			sp.Kernel(prod, c, fields, dz, dx)
			spec, sl, _ := xl.run(c, l, nb)
			e.padX.ForwardTruncatedBatch(spec, sl, prod, phys, nb, w.xscr)
		}
		l += nb
	}
}

// harvestLines folds |fields[0..2]| of the nb point-interleaved x lines from
// l into the worker's per-y maxima; line l+b sits at global y index
// yLo + (l+b)/nzLoc. The lines' maxima are formed side by side, point by
// point, so no line waits on another; the builtin max carries a NaN
// through.
func (e *Excursion) harvestLines(w *excursionWorker, yLo, l, nb int, fields [][]float64) {
	lm := w.lineMax[:nb]
	for c := range w.maxAbs {
		clear(lm)
		p := fields[c]
		for i := 0; i < len(p); i += nb {
			for b, v := range p[i:][:len(lm)] {
				lm[b] = max(lm[b], math.Abs(v))
			}
		}
		m := w.maxAbs[c]
		for b, v := range lm {
			yg := yLo + (l+b)/e.nzLoc
			m[yg] = max(m[yg], v)
		}
	}
}

// zForward truncates and forward transforms in z the lines [lo, hi) of the
// Out fields of pad into spec.
func (e *Excursion) zForward(w *excursionWorker, pad, spec *lines, lo, hi int) {
	for f := 0; f < e.spec.Out; f++ {
		for l := lo; l < hi; {
			s, sl, nb := spec.run(f, l, min(hi-l, e.nbz))
			phys, pl, _ := pad.run(f, l, nb)
			e.padZ.ForwardTruncatedBatch(s, sl, phys, pl, nb, w.zscr)
			l += nb
		}
	}
}
