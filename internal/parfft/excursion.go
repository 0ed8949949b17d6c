package parfft

import (
	"math"
	"sync"

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
	// Harvest records the per-y maxima of |phys[0]|, |phys[1]|, |phys[2]|
	// (the velocities) for the CFL diagnostic; see MaxAbs.
	Harvest bool
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
var SixProducts = Spec{In: 3, Out: NumProducts, Harvest: true, Kernel: sixProducts}

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
// stages read and write the y-pencils, so there is no zs pool; with PA == 1
// the x line is read from and written to the padded z-pencils, so there is
// no xp pool. Each stage has one body over a lines view bound at
// construction, folded or not.
//
// Elsewhere every transpose completes before the stage that follows it runs
// over all of its lines: the blocking exchange of the paper. The stages'
// pool-block bodies are method values bound at construction.
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
	// max(In, Out) fields, zp and xp the most max(In+Grad, Out). zs is empty
	// when foldB, xp when foldA.
	y, zs, zp, xp [][]complex128
	workers       []excursionWorker

	// foldA and foldB say CommA and CommB have one rank. The z stages read
	// and write the lines zl, the x stage the lines xl.
	foldA, foldB bool
	zl, xl       lines

	// Per-y maxima of the last harvesting pass, merged from the workers'
	// block maxima under maxMu.
	maxAbs [3][]float64
	maxMu  sync.Mutex

	// The pass in flight, read by the pool-block bodies.
	spec                   *Spec
	zInvBlk, xBlk, zFwdBlk func(blk, lo, hi int)
}

// lines addresses the spectral lines of a set of fields: line l of field f
// starts at (l/div)*outer + (l%div)*inner of (*bufs)[f], and its elements
// lie stride apart. bufs points at an Excursion pool, which Register grows.
type lines struct {
	bufs                      *[][]complex128
	div, outer, inner, stride int
}

// run returns field f from the start of line l on, the layout of the lines
// from l, and how many of the next n lines (n >= 1) that layout holds: the
// lines up to the next multiple of div, which lie inner apart, or all n when
// div == 1, outer apart.
func (v *lines) run(f, l, n int) ([]complex128, fft.Layout, int) {
	s := (*v.bufs)[f][(l/v.div)*v.outer+(l%v.div)*v.inner:]
	if v.div == 1 {
		return s, fft.Layout{Elem: v.stride, Line: v.outer}, n
	}
	return s, fft.Layout{Elem: v.stride, Line: v.inner}, min(n, v.div-l%v.div)
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
	e.zl, e.xl = lines{&e.zs, 1, nz, 0, 1}, lines{&e.xp, 1, nkx, 0, 1}
	if e.foldB {
		// z line kx*nyLoc + y is the y-pencil column (kx, ., y): nyLoc == NY.
		e.zl = lines{&e.y, e.nyLoc, nz * d.NY, 1, d.NY}
	}
	if e.foldA {
		// x line y*nzLoc + z is the z-pencil column (., y, z): nzLoc == mz.
		e.xl = lines{&e.zp, 1, 1, 0, e.nyLoc * mz}
	}
	e.zInvBlk, e.xBlk, e.zFwdBlk = e.zInvBlock, e.xBlock, e.zFwdBlock
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
	grow(&e.zp, nPhys, d.ZPencilLen(mz))
	if !e.foldB {
		grow(&e.zs, nSpec, d.ZPencilLen(nz))
	}
	if !e.foldA {
		grow(&e.xp, nPhys, d.XPencilLen(mz))
	}
	for i := range e.workers {
		w := &e.workers[i]
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
// the result is valid until the caller next writes In or calls Run.
func (e *Excursion) Run(sp *Spec) [][]complex128 {
	d := e.d
	mz := e.padZ.PhysicalLen()
	nd := sp.In + sp.Grad
	e.spec = sp

	// (a)-(c) y-pencils -> z-pencils, the padded inverse z transform.
	e.transpose(e.foldB, pencil.DirYtoZ, d.NZ, sp.In, e.zs, e.y)
	e.zInverse()

	// (d)-(g) z-pencils -> x-pencils, the fused x excursion.
	if sp.Harvest {
		for c := range e.maxAbs {
			clear(e.maxAbs[c])
		}
	}
	e.transpose(e.foldA, pencil.DirZtoX, mz, nd, e.xp, e.zp)
	e.xExcursion()

	// (h) reverse path: x-pencils -> z-pencils, the truncated forward z
	// transform, then back to y-pencils.
	e.transpose(e.foldA, pencil.DirXtoZ, mz, sp.Out, e.zp, e.xp)
	e.zForward()
	e.transpose(e.foldB, pencil.DirZtoY, d.NZ, sp.Out, e.y, e.zs)
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

// zInverse pads and inverse transforms in z every z-pencil line, kx-major.
func (e *Excursion) zInverse() {
	sp := e.tel.Begin(telemetry.PhaseFFTInverse)
	e.d.Pool.ForBlocksIndexed(e.kxLoc*e.nyLoc, e.zInvBlk)
	sp.End()
}

func (e *Excursion) zInvBlock(blk, lo, hi int) {
	mz := e.padZ.PhysicalLen()
	w := &e.workers[blk]
	phys := fft.Layout{Elem: 1, Line: mz}
	for f := 0; f < e.spec.In; f++ {
		for l := lo; l < hi; {
			spec, sl, nb := e.zl.run(f, l, min(hi-l, e.nbz))
			e.padZ.InversePaddedBatch(e.zp[f][l*mz:], phys, spec, sl, nb, w.zscr)
			if f < e.spec.Grad {
				e.padZ.InversePaddedBatch(e.zp[e.spec.In+f][l*mz:], phys,
					derivative(w.zline, e.ikz, spec, sl, nb), fft.Layout{Elem: nb, Line: 1}, nb, w.zscr)
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

// xExcursion runs the fused x excursion over every x-pencil line, y-major.
func (e *Excursion) xExcursion() {
	sp := e.tel.Begin(telemetry.PhaseNonlinear)
	e.d.Pool.ForBlocksIndexed(e.nyLoc*e.nzLoc, e.xBlk)
	sp.End()
}

func (e *Excursion) xBlock(blk, lo, hi int) {
	sp := e.spec
	nd := sp.In + sp.Grad
	w := &e.workers[blk]
	mx := e.padX.PhysicalLen()
	if sp.Harvest {
		for c := range w.maxAbs {
			clear(w.maxAbs[c])
		}
	}
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
			spec, sl, _ := e.xl.run(f, l, nb)
			e.padX.InversePaddedBatch(view[f], phys, spec, sl, nb, w.xscr)
			if f < sp.Grad {
				e.padX.InversePaddedBatch(dx[f], phys,
					derivative(w.xline, e.ikx, spec, sl, nb), fft.Layout{Elem: nb, Line: 1}, nb, w.xscr)
			}
		}
		if sp.Harvest {
			e.harvest(w, l, nb, fields)
		}
		prod := w.prod[:mx*nb]
		for c := 0; c < sp.Out; c++ {
			sp.Kernel(prod, c, fields, dz, dx)
			spec, sl, _ := e.xl.run(c, l, nb)
			e.padX.ForwardTruncatedBatch(spec, sl, prod, phys, nb, w.xscr)
		}
		l += nb
	}
	if sp.Harvest {
		e.maxMu.Lock()
		for c, m := range e.maxAbs {
			for y, v := range w.maxAbs[c] {
				m[y] = max(m[y], v)
			}
		}
		e.maxMu.Unlock()
	}
}

// harvest folds |fields[0..2]| of the nb point-interleaved x lines from l
// into the worker's per-y maxima; line l+b sits at global y index
// yLo0 + (l+b)/nzLoc. The lines' maxima are formed side by side, point by
// point, so no line waits on another; the builtin max carries a NaN
// through.
func (e *Excursion) harvest(w *excursionWorker, l, nb int, fields [][]float64) {
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
			yg := e.yLo0 + (l+b)/e.nzLoc
			m[yg] = max(m[yg], v)
		}
	}
}

// zForward truncates and forward transforms in z every z-pencil line,
// kx-major.
func (e *Excursion) zForward() {
	sp := e.tel.Begin(telemetry.PhaseFFTForward)
	e.d.Pool.ForBlocksIndexed(e.kxLoc*e.nyLoc, e.zFwdBlk)
	sp.End()
}

func (e *Excursion) zFwdBlock(blk, lo, hi int) {
	mz := e.padZ.PhysicalLen()
	zscr := e.workers[blk].zscr
	phys := fft.Layout{Elem: 1, Line: mz}
	for f := 0; f < e.spec.Out; f++ {
		src := e.zp[f]
		for l := lo; l < hi; {
			spec, sl, nb := e.zl.run(f, l, min(hi-l, e.nbz))
			e.padZ.ForwardTruncatedBatch(spec, sl, src[l*mz:], phys, nb, zscr)
			l += nb
		}
	}
}
