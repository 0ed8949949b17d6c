// Package parfft implements the distributed 2.5-D FFT pipeline that paper
// §4.4 benchmarks against P3DFFT (Table 6): four global transposes and four
// batched 1-D FFT stages per cycle, with the wall-normal direction never
// transformed (the channel code does linear algebra there instead).
//
// Two kernels share the machinery:
//
//   - Custom mirrors the paper's customized kernel: the x Nyquist mode is
//     neither stored nor transposed (Nx/2 one-sided modes instead of
//     Nx/2+1), communication scratch is sized to the input array (1x), and
//     FFT plus pack/unpack loops run under a worker pool.
//   - Baseline mirrors P3DFFT 2.5.1's behaviour: the Nyquist mode is carried
//     through every transpose, scratch buffers total three times the input
//     size, and there is no shared-memory threading.
//
// A Kernel owns its cycle workspace: the four intermediate pencil arrays
// (per field count) and per-worker FFT line scratch are allocated on first
// use and reused, so steady-state Cycle calls allocate nothing beyond the
// pool closure headers.
package parfft

import (
	"time"

	"channeldns/internal/fft"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/pencil"
	"channeldns/internal/telemetry"
)

// Kernel is a distributed parallel-FFT pipeline instance; construct with
// NewCustom or NewBaseline.
type Kernel struct {
	D           *pencil.Decomp
	Nx          int
	DropNyquist bool
	Pool        *par.Pool

	planZ *fft.Plan
	planX *fft.RealPlan
	// ballast emulates P3DFFT's extra working buffers; nil for Custom.
	ballast []complex128

	// Per-worker FFT line scratch, indexed by pool block id.
	workers []kernelWorker
	// Reusable intermediate pencil buffers, keyed by field count.
	bufs map[int]*cycleBufs

	// tel, when non-nil, receives per-stage FFT timing samples; the
	// transposes report through the shared Decomp collector. Set with
	// SetTelemetry.
	tel *telemetry.Collector

	// cur is the fields the stage in flight transforms, read by the pool
	// block bodies, which are bound once at construction so steady-state
	// Cycles create no per-call closures.
	cur                                [][]complex128
	zInvBlockFn, xBlockFn, zFwdBlockFn func(blk, lo, hi int)
}

// SetTelemetry attaches a per-rank telemetry collector to the kernel and
// its decomposition, so Cycle feeds the same accounting spine as the DNS
// timestep: FFT stages as PhaseFFTInverse/PhaseFFTForward regions,
// transposes as PhaseTransposeAB regions with per-direction byte counters.
func (k *Kernel) SetTelemetry(t *telemetry.Collector) {
	k.tel = t
	k.D.Telemetry = t
}

// kernelWorker holds one worker's transform scratch.
type kernelWorker struct {
	zline []complex128 // z-transform output line (out-of-place)
	phys  []float64    // physical x line
	spec  []complex128 // half-complex x spectrum (Nyquist slot included)
	xscr  []complex128 // real-plan scratch
}

// cycleBufs holds the intermediate pencil arrays of one cycle for a fixed
// number of fields.
type cycleBufs struct {
	zp, xp, zp2, out [][]complex128
}

// Timings accumulates per-cycle time split by operation class, the
// breakdown the paper reports.
type Timings struct {
	Transpose time.Duration
	FFT       time.Duration
}

// Total returns the summed time.
func (t Timings) Total() time.Duration { return t.Transpose + t.FFT }

// NewCustom builds the customized kernel on a PA x PB process grid for an
// Nx x Ny x Nz grid (Nx even). One-sided x modes: Nx/2 (Nyquist dropped).
func NewCustom(world *mpi.Comm, pa, pb, nx, ny, nz int, pool *par.Pool) *Kernel {
	return newKernel(world, pa, pb, nx, ny, nz, true, pool)
}

// NewBaseline builds the P3DFFT-style kernel: Nyquist kept (Nx/2+1 modes),
// 3x buffers, serial on-node execution.
func NewBaseline(world *mpi.Comm, pa, pb, nx, ny, nz int) *Kernel {
	return newKernel(world, pa, pb, nx, ny, nz, false, nil)
}

func newKernel(world *mpi.Comm, pa, pb, nx, ny, nz int, drop bool, pool *par.Pool) *Kernel {
	nkx := nx/2 + 1
	if drop {
		nkx = nx / 2
	}
	k := &Kernel{
		Nx:          nx,
		DropNyquist: drop,
		Pool:        pool,
		D:           pencil.New(world, pa, pb, nkx, nz, ny, pool),
		planZ:       fft.NewPlan(nz),
		planX:       fft.NewRealPlan(nx),
		bufs:        map[int]*cycleBufs{},
	}
	k.zInvBlockFn = k.zInvBlock
	k.xBlockFn = k.xBlock
	k.zFwdBlockFn = k.zFwdBlock
	k.workers = make([]kernelWorker, pool.Workers())
	for i := range k.workers {
		w := &k.workers[i]
		w.zline = make([]complex128, nz)
		w.phys = make([]float64, nx)
		w.spec = make([]complex128, nx/2+1)
		w.xscr = make([]complex128, k.planX.ScratchLen())
	}
	if !drop {
		// P3DFFT's communication scratch is three times the input array;
		// allocate (and touch) the extra 2x so the memory footprint is real.
		yl, yh := k.D.YRange()
		zl, zh := k.D.ZRangeX(nz)
		n := (yh - yl) * (zh - zl) * nkx
		k.ballast = make([]complex128, 2*n)
		for i := range k.ballast {
			k.ballast[i] = 0
		}
	}
	return k
}

// NKx returns the number of one-sided x modes carried.
func (k *Kernel) NKx() int { return k.D.NKx }

// YPencilLen returns the per-field local length in the starting (y-pencil)
// configuration.
func (k *Kernel) YPencilLen() int { return k.D.YPencilLen() }

// cycleBufsFor returns (building on first use) the intermediate buffers for
// an nf-field cycle.
func (k *Kernel) cycleBufsFor(nf int) *cycleBufs {
	if b, ok := k.bufs[nf]; ok {
		return b
	}
	d := k.D
	b := &cycleBufs{
		zp:  allocFields(nf, d.ZPencilLen(d.NZ)),
		xp:  allocFields(nf, d.XPencilLen(d.NZ)),
		zp2: allocFields(nf, d.ZPencilLen(d.NZ)),
		out: allocFields(nf, d.YPencilLen()),
	}
	k.bufs[nf] = b
	return b
}

func allocFields(nf, n int) [][]complex128 {
	out := make([][]complex128, nf)
	for i := range out {
		out[i] = make([]complex128, n)
	}
	return out
}

// Cycle runs one full parallel-FFT cycle on the given spectral y-pencil
// fields: y->z transpose, inverse z FFT, z->x transpose, inverse x FFT,
// then the forward path back to y-pencils. As in the paper's benchmark, no
// 3/2 padding is applied and the wall-normal direction is untouched.
// The round trip is normalized to the identity. Returns the timing split.
// The returned fields are workspace buffers reused by the next Cycle call
// with the same field count.
//
// Each transpose completes before the stage that follows it runs over all
// of its lines: the blocking exchange of the paper.
func (k *Kernel) Cycle(fields [][]complex128) ([][]complex128, Timings) {
	var tm Timings
	d := k.D
	nz := d.NZ
	b := k.cycleBufsFor(len(fields))

	t0 := time.Now()
	// lap charges the time since the previous lap to *to.
	lap := func(to *time.Duration) {
		t := time.Now()
		*to += t.Sub(t0)
		t0 = t
	}

	// y->z transpose, inverse z FFT.
	k.cur = d.YtoZ(b.zp, fields)
	lap(&tm.Transpose)
	k.zInverse()
	lap(&tm.FFT)

	// z->x transpose, the fused inverse+forward x transform (physical
	// excursion).
	k.cur = d.ZtoX(b.xp, k.cur, nz)
	lap(&tm.Transpose)
	k.xExcursion()
	lap(&tm.FFT)

	// x->z transpose, normalized forward z FFT.
	k.cur = d.XtoZ(b.zp2, k.cur, nz)
	lap(&tm.Transpose)
	k.zForward()
	lap(&tm.FFT)

	// z->y transpose.
	out := d.ZtoY(b.out, k.cur)
	k.cur = nil
	lap(&tm.Transpose)
	return out, tm
}

// zInverse runs the inverse z FFT over every z-pencil line of cur, lines of
// length nz, out-of-place through the worker's line scratch (in-place would
// make the complex plan allocate a temporary per line).
func (k *Kernel) zInverse() {
	kl, kh := k.D.KxRange()
	yl, yh := k.D.YRange()
	sp := k.tel.Begin(telemetry.PhaseFFTInverse)
	k.Pool.ForBlocksIndexed((kh-kl)*(yh-yl), k.zInvBlockFn)
	sp.End()
}

func (k *Kernel) zInvBlock(blk, lo, hi int) {
	nz := k.D.NZ
	zline := k.workers[blk].zline
	for _, fd := range k.cur {
		for l := lo; l < hi; l++ {
			line := fd[l*nz : (l+1)*nz]
			k.planZ.Inverse(zline, line)
			copy(line, zline)
		}
	}
}

// xExcursion runs the fused inverse+forward x transform over every x-pencil
// line of cur.
func (k *Kernel) xExcursion() {
	yl, yh := k.D.YRange()
	zl, zh := k.D.ZRangeX(k.D.NZ)
	sp := k.tel.Begin(telemetry.PhaseFFTForward)
	k.Pool.ForBlocksIndexed((yh-yl)*(zh-zl), k.xBlockFn)
	sp.End()
}

func (k *Kernel) xBlock(blk, lo, hi int) {
	nkx := k.D.NKx
	w := &k.workers[blk]
	phys, spec, xscr := w.phys, w.spec, w.xscr
	s := complex(1/float64(k.Nx), 0)
	for _, fd := range k.cur {
		for l := lo; l < hi; l++ {
			line := fd[l*nkx : (l+1)*nkx]
			copy(spec, line)
			for i := nkx; i < len(spec); i++ {
				spec[i] = 0 // Nyquist (if dropped) enters as zero
			}
			k.planX.InverseScratch(phys, spec, xscr)
			k.planX.ForwardScratch(spec, phys, xscr)
			for i := range line {
				line[i] = spec[i] * s
			}
		}
	}
}

// zForward runs the normalized forward z FFT over every z-pencil line of
// cur.
func (k *Kernel) zForward() {
	kl, kh := k.D.KxRange()
	yl, yh := k.D.YRange()
	sp := k.tel.Begin(telemetry.PhaseFFTForward)
	k.Pool.ForBlocksIndexed((kh-kl)*(yh-yl), k.zFwdBlockFn)
	sp.End()
}

func (k *Kernel) zFwdBlock(blk, lo, hi int) {
	nz := k.D.NZ
	zline := k.workers[blk].zline
	for _, fd := range k.cur {
		for l := lo; l < hi; l++ {
			line := fd[l*nz : (l+1)*nz]
			k.planZ.Forward(zline, line)
			fft.Scale(zline, 1/float64(nz))
			copy(line, zline)
		}
	}
}
