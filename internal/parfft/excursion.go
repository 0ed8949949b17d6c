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
	// Kernel fills out with product c (0 <= c < Out) of one physical x line:
	// phys holds the In fields, dz and dx the z and x derivatives of the
	// first Grad of them, so a kernel reads the same lines whatever fields a
	// caller appends to In. The excursion forward-transforms out after each
	// call.
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
	a, b := phys[productPairs[c][0]], phys[productPairs[c][1]]
	for i := range out {
		out[i] = a[i] * b[i]
	}
}

// Excursion runs dealiased passes over one decomposition. It owns the
// pipeline field buffers and the per-worker line scratch, sized once for the
// largest registered Spec — the allocation-discipline analog of the paper's
// 1x communication buffers (§4.3) — so a pass allocates nothing beyond the
// pool's closure headers. Every stage fully overwrites the elements it later
// reads, so passes of different Specs share the buffers; elements no pass
// writes (the z Nyquist column, the mean mode of v) keep their initial zeros.
//
// A transpose inside a one-rank communicator moves each element by a fixed
// index map, so there the excursion does not run it: the transforms read and
// write the pencils where they sit, through strided spectral operands, and
// the plan only books the call (pencil.TransposePlan.Book). The fold is
// chosen per communicator from the process grid: with PB == 1 the z inverse
// reads the y-pencil inputs and the z forward writes the y-pencil outputs, so
// there is no zpIn or zspec; with PA == 1 the x line is read from and written
// to the z-pencils, so there is no xp or prodX. Each consume hook has one body
// over a lines view bound at construction, folded or not.
//
// The other forward-path transposes run through the pipelined entry points:
// with Decomp.Overlap each exchange moves in chunks and the consume hooks
// run the following transform stage on every completed chunk-axis line range
// while later chunks are still on the wire; with overlap off the same hooks
// run once over the full range after the one-shot exchange, so there is one
// code path and the results are bit-identical either way. The hooks and their
// pool-block bodies are method values bound at construction.
type Excursion struct {
	d        *pencil.Decomp
	padZ     *fft.PaddedComplex
	padX     *fft.PaddedReal
	ikz, ikx []complex128
	tel      *telemetry.Collector

	// Local extents: kx lines and y planes of the z-pencils, z lines per y
	// plane of the x-pencils, and the first global y index.
	kxLoc, nyLoc, nzLoc, yLo0 int

	// Field buffers in pipeline order: y-pencil inputs, the same after YtoZ,
	// padded physical-z lines (+ z derivatives), the same after ZtoX, products
	// in x-pencils, the same after XtoZ, truncated spectral-z lines, products
	// back in y-pencils. zpIn and zspec stay empty when foldB, xp and prodX
	// when foldA.
	inY, zpIn, zphys, xp, prodX, zpOut, zspec, outY [][]complex128
	workers                                         []excursionWorker

	// foldA and foldB say CommA and CommB have one rank. The lines the z
	// inverse reads, the x inverse reads, the x forward writes and the z
	// forward writes are zIn, xIn, xOut and zOut.
	foldA, foldB         bool
	zIn, xIn, xOut, zOut lines

	// Per-y maxima of the last harvesting pass, merged from the workers'
	// block maxima under maxMu.
	maxAbs [3][]float64
	maxMu  sync.Mutex

	// The pass in flight and the line window of the current consume range,
	// read by the pool-block bodies.
	spec       *Spec
	lineOff    int
	yLo, ySpan int

	zInvFn, xFn, zFwdFn    func(lo, hi int)
	zInvBlk, xBlk, zFwdBlk func(blk, lo, hi int)
}

// lines addresses the spectral lines of a set of fields: line l of field f
// starts at (l/div)*outer + (l%div)*inner of (*bufs)[f], and its elements
// lie stride apart. bufs points at an Excursion field, which Register grows.
type lines struct {
	bufs                      *[][]complex128
	div, outer, inner, stride int
}

// at returns field f from the start of line l on.
func (v *lines) at(f, l int) []complex128 {
	return (*v.bufs)[f][(l/v.div)*v.outer+(l%v.div)*v.inner:]
}

// excursionWorker is one worker's private line scratch, selected by the
// block id of ForBlocksIndexed.
type excursionWorker struct {
	zscr, zline []complex128 // z transform scratch, i*kz-multiplied line
	xscr, xline []complex128 // x transform scratch, i*kx-multiplied line
	phys        [][]float64  // physical x lines: In fields, Grad dz, Grad dx
	prod        []float64
	maxAbs      [3][]float64
}

// NewExcursion builds the pipeline on d (whose Pool, Overlap setting and
// instrumentation it uses) for the padded transform pair, sized for specs.
// ikz and ikx are the i*kz (per wrapped z mode) and i*kx (per one-sided x
// mode) multiplier lines; only Specs with Grad > 0 read them. tel may be nil.
func NewExcursion(d *pencil.Decomp, padZ *fft.PaddedComplex, padX *fft.PaddedReal,
	ikz, ikx []complex128, tel *telemetry.Collector, specs ...*Spec) *Excursion {
	e := &Excursion{d: d, padZ: padZ, padX: padX, ikz: ikz, ikx: ikx, tel: tel}
	kl, kh := d.KxRange()
	yl, yh := d.YRange()
	zl, zh := d.ZRangeX(padZ.PhysicalLen())
	e.kxLoc, e.nyLoc, e.nzLoc, e.yLo0 = kh-kl, yh-yl, zh-zl, yl
	nz, nkx, mz := padZ.SpectralLen(), padX.SpectralLen(), padZ.PhysicalLen()
	e.foldA, e.foldB = d.PA == 1, d.PB == 1
	e.zIn, e.zOut = lines{&e.zpIn, 1, nz, 0, 1}, lines{&e.zspec, 1, nz, 0, 1}
	if e.foldB {
		// z line kx*nyLoc + y is the y-pencil column (kx, ., y): nyLoc == NY.
		e.zIn = lines{&e.inY, e.nyLoc, nz * d.NY, 1, d.NY}
		e.zOut = lines{&e.outY, e.nyLoc, nz * d.NY, 1, d.NY}
	}
	e.xIn, e.xOut = lines{&e.xp, 1, nkx, 0, 1}, lines{&e.prodX, 1, nkx, 0, 1}
	if e.foldA {
		// x line y*nzLoc + z is the z-pencil column (., y, z): nzLoc == mz.
		e.xIn = lines{&e.zphys, 1, 1, 0, e.nyLoc * mz}
		e.xOut = lines{&e.zpOut, 1, 1, 0, e.nyLoc * mz}
	}
	e.zInvFn, e.xFn, e.zFwdFn = e.consumeZInv, e.consumeX, e.consumeZFwd
	e.zInvBlk, e.xBlk, e.zFwdBlk = e.zInvBlock, e.xBlock, e.zFwdBlock
	for c := range e.maxAbs {
		e.maxAbs[c] = make([]float64, d.NY)
	}
	e.workers = make([]excursionWorker, d.Pool.Workers())
	for i := range e.workers {
		w := &e.workers[i]
		w.zscr = make([]complex128, padZ.ScratchLen())
		w.zline = make([]complex128, padZ.SpectralLen())
		w.xscr = make([]complex128, padX.ScratchLen())
		w.xline = make([]complex128, padX.SpectralLen())
		w.prod = make([]float64, padX.PhysicalLen())
		for c := range w.maxAbs {
			w.maxAbs[c] = make([]float64, d.NY)
		}
	}
	for _, sp := range specs {
		e.Register(sp)
	}
	return e
}

// Register grows the buffers to hold a pass of sp. Call it before the first
// Run of a Spec that NewExcursion was not given.
func (e *Excursion) Register(sp *Spec) {
	d := e.d
	nz, mz := e.padZ.SpectralLen(), e.padZ.PhysicalLen()
	grow := func(fields *[][]complex128, nf, n int) {
		for len(*fields) < nf {
			*fields = append(*fields, make([]complex128, n))
		}
	}
	grow(&e.inY, sp.In, d.YPencilLen())
	grow(&e.zphys, sp.In+sp.Grad, d.ZPencilLen(mz))
	grow(&e.zpOut, sp.Out, d.ZPencilLen(mz))
	grow(&e.outY, sp.Out, d.YPencilLen())
	if !e.foldB {
		grow(&e.zpIn, sp.In, d.ZPencilLen(nz))
		grow(&e.zspec, sp.Out, d.ZPencilLen(nz))
	}
	if !e.foldA {
		grow(&e.xp, sp.In+sp.Grad, d.XPencilLen(mz))
		grow(&e.prodX, sp.Out, d.XPencilLen(mz))
	}
	for i := range e.workers {
		w := &e.workers[i]
		for len(w.phys) < sp.In+2*sp.Grad {
			w.phys = append(w.phys, make([]float64, e.padX.PhysicalLen()))
		}
	}
}

// In returns the first n y-pencil input fields, layout [kxLoc][kzLoc][NY],
// for the caller to fill before Run.
func (e *Excursion) In(n int) [][]complex128 { return e.inY[:n] }

// MaxAbs returns the per-y maxima of |phys[0..2]| from the last harvesting
// pass, indexed by global y (this rank's y range; zero elsewhere).
func (e *Excursion) MaxAbs() [3][]float64 { return e.maxAbs }

// Run carries In(sp.In) through one pass of sp and returns the sp.Out
// product fields in the y-pencil layout. The result aliases the excursion's
// buffers and is valid until the next Run.
func (e *Excursion) Run(sp *Spec) [][]complex128 {
	d := e.d
	mz := e.padZ.PhysicalLen()
	nd := sp.In + sp.Grad
	e.spec = sp

	// (a)-(c) y-pencils -> z-pencils, the padded inverse z transform
	// consuming each completed chunk of local-kx lines.
	e.transpose(e.foldB, pencil.DirYtoZ, d.NZ, sp.In, e.zpIn, e.inY, e.zInvFn)

	// (d)-(g) z-pencils -> x-pencils, the fused x excursion consuming each
	// chunk of local-y lines.
	if sp.Harvest {
		for c := range e.maxAbs {
			clear(e.maxAbs[c])
		}
	}
	e.transpose(e.foldA, pencil.DirZtoX, mz, nd, e.xp, e.zphys, e.xFn)

	// (h) reverse path: x-pencils -> z-pencils with the truncated forward z
	// transform consuming each chunk of local-y lines, then back to
	// y-pencils (one-shot: nothing follows to hide the return leg under).
	e.transpose(e.foldA, pencil.DirXtoZ, mz, sp.Out, e.zpOut, e.prodX, e.zFwdFn)
	e.transpose(e.foldB, pencil.DirZtoY, d.NZ, sp.Out, e.outY, e.zspec, nil)
	return e.outY[:sp.Out]
}

// transpose moves the first nf fields of src to dst in direction dir and
// runs consume over the moved lines: pipelined, or one-shot when consume is
// nil. Where fold says the communicator has one rank, the consume hooks
// address the pencils in place, so the plan only books the call.
func (e *Excursion) transpose(fold bool, dir pencil.TransposeDir, zLen, nf int, dst, src [][]complex128, consume func(lo, hi int)) {
	p := e.d.Plan(dir, zLen, nf)
	switch {
	case fold:
		p.Book(consume)
	case consume == nil:
		p.Run(dst[:nf], src[:nf])
	default:
		p.RunPipelined(dst[:nf], src[:nf], consume)
	}
}

// consumeZInv is the YtoZ consume hook: pad and inverse transform in z the
// lines of local-kx range [lo, hi) — z-pencil lines are kx-major, so the
// range maps to the contiguous line window [lo, hi) * nyLoc.
func (e *Excursion) consumeZInv(lo, hi int) {
	e.lineOff = lo * e.nyLoc
	sp := e.tel.Begin(telemetry.PhaseFFTInverse)
	e.d.Pool.ForBlocksIndexed((hi-lo)*e.nyLoc, e.zInvBlk)
	sp.End()
}

func (e *Excursion) zInvBlock(blk, lo, hi int) {
	mz := e.padZ.PhysicalLen()
	w := &e.workers[blk]
	in := &e.zIn
	lo += e.lineOff
	hi += e.lineOff
	for f := 0; f < e.spec.In; f++ {
		dst := e.zphys[f]
		for l := lo; l < hi; l++ {
			line := in.at(f, l)
			e.padZ.InversePaddedStrided(dst[l*mz:(l+1)*mz], line, in.stride, w.zscr)
			if f < e.spec.Grad {
				for j := range w.zline {
					w.zline[j] = e.ikz[j] * line[j*in.stride]
				}
				e.padZ.InversePaddedScratch(e.zphys[e.spec.In+f][l*mz:(l+1)*mz], w.zline, w.zscr)
			}
		}
	}
}

// consumeX is the ZtoX consume hook: the fused x excursion for the local-y
// range [lo, hi) — x-pencil lines are y-major, so the range maps to the
// contiguous line window [lo, hi) * nzLoc.
func (e *Excursion) consumeX(lo, hi int) {
	e.lineOff = lo * e.nzLoc
	sp := e.tel.Begin(telemetry.PhaseNonlinear)
	e.d.Pool.ForBlocksIndexed((hi-lo)*e.nzLoc, e.xBlk)
	sp.End()
}

func (e *Excursion) xBlock(blk, lo, hi int) {
	sp := e.spec
	nd := sp.In + sp.Grad
	w := &e.workers[blk]
	in, out := &e.xIn, &e.xOut
	phys := w.phys[:nd+sp.Grad]
	fields, dz, dx := phys[:sp.In], phys[sp.In:nd], phys[nd:]
	if sp.Harvest {
		for c := range w.maxAbs {
			clear(w.maxAbs[c])
		}
	}
	lo += e.lineOff
	hi += e.lineOff
	for l := lo; l < hi; l++ {
		for f := 0; f < nd; f++ {
			e.padX.InversePaddedStrided(phys[f], in.at(f, l), in.stride, w.xscr)
		}
		for f := 0; f < sp.Grad; f++ {
			line := in.at(f, l)
			for k := range w.xline {
				w.xline[k] = e.ikx[k] * line[k*in.stride]
			}
			e.padX.InversePaddedScratch(phys[nd+f], w.xline, w.xscr)
		}
		if sp.Harvest {
			// Line l sits at global y index yLo0 + l/nzLoc.
			yg := e.yLo0 + l/e.nzLoc
			m := &w.maxAbs
			m0, m1, m2 := m[0][yg], m[1][yg], m[2][yg]
			pu, pv, pw := phys[0], phys[1][:len(phys[0])], phys[2][:len(phys[0])]
			for i := range pu {
				m0 = math.Max(m0, math.Abs(pu[i]))
				m1 = math.Max(m1, math.Abs(pv[i]))
				m2 = math.Max(m2, math.Abs(pw[i]))
			}
			m[0][yg], m[1][yg], m[2][yg] = m0, m1, m2
		}
		for c := 0; c < sp.Out; c++ {
			sp.Kernel(w.prod, c, fields, dz, dx)
			e.padX.ForwardTruncatedStrided(out.at(c, l), out.stride, w.prod, w.xscr)
		}
	}
	if sp.Harvest {
		e.maxMu.Lock()
		for c, m := range e.maxAbs {
			for y, v := range w.maxAbs[c] {
				m[y] = math.Max(m[y], v)
			}
		}
		e.maxMu.Unlock()
	}
}

// consumeZFwd is the XtoZ consume hook: truncated forward z transform for
// the local-y range [lo, hi). Unlike the inverse leg the destination lines
// are strided — line kx*nyLoc + y for every local kx and y in range — so the
// pool iterates a dense (kx, y-in-range) index.
func (e *Excursion) consumeZFwd(lo, hi int) {
	e.yLo, e.ySpan = lo, hi-lo
	sp := e.tel.Begin(telemetry.PhaseFFTForward)
	e.d.Pool.ForBlocksIndexed(e.kxLoc*(hi-lo), e.zFwdBlk)
	sp.End()
}

func (e *Excursion) zFwdBlock(blk, lo, hi int) {
	mz := e.padZ.PhysicalLen()
	zscr := e.workers[blk].zscr
	span := e.ySpan
	out := &e.zOut
	for f := 0; f < e.spec.Out; f++ {
		src := e.zpOut[f]
		for l := lo; l < hi; l++ {
			kx := l / span
			li := kx*e.nyLoc + e.yLo + (l - kx*span)
			e.padZ.ForwardTruncatedStrided(out.at(f, li), out.stride, src[li*mz:(li+1)*mz], zscr)
		}
	}
}
