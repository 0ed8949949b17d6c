// Package pencil implements the 3-D pencil decomposition and the global
// data transposes of paper §2.2-2.3. Each rank owns a pencil that is long
// in the direction currently being transformed (y for linear algebra, z or
// x for FFTs); changing pencil orientation is a global transpose executed
// as an alltoallv inside one of two cartesian sub-communicators:
//
//	CommB:  y-pencils <-> z-pencils (redistributes kz and y)
//	CommA:  z-pencils <-> x-pencils (redistributes kx and z)
//
// The on-node data reordering A(i,j,k) -> A(j,k,i) that the paper threads
// with OpenMP, and the pack/unpack around each exchange (paper Tables 3–5),
// are one data movement here: a 3-D block read at one set of strides and
// written at another (copyBlock). A plan describes each peer's block on the
// two pencil sides of its direction once; pack, unpack, the move of the
// block a rank keeps and the standalone Reorder kernel of the Table 4
// benchmark are all that one copy.
//
// Every transpose runs through a TransposePlan: per-(direction, z-extent,
// field-count) precomputed count/displacement tables plus persistent send
// and receive buffers owned by the Decomp and sized exactly once (the
// paper's 1x-buffer discipline, §4.3). The buffers hold only the blocks
// bound for other ranks; a rank's own block is copied once, src -> dst,
// pool-parallel over lines, so at P = 1 a transpose is that one pass. The dealiased excursion (parfft.Excursion) skips even
// that: at P = 1 its transforms read and write the pencils in place and the
// plan only books the call (TransposePlan.Book), so its transposes move
// nothing there while the counters, the trace and the schedule IR still
// declare the paper's passes. Plans are built lazily on first use and reused
// for the life of the Decomp, so the steady-state transpose path performs no
// allocations. A Decomp's transposes must not be invoked concurrently from
// multiple goroutines (ranks never do).
package pencil

import (
	"fmt"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/schedule"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// Chunk returns the half-open index range [lo, hi) that rank r of p owns
// out of n items, balanced to within one item.
func Chunk(n, p, r int) (lo, hi int) {
	return r * n / p, (r + 1) * n / p
}

// TransposeDir identifies one of the four global transpose directions.
type TransposeDir int

// Transpose directions.
const (
	DirYtoZ TransposeDir = iota // y-pencils -> z-pencils (CommB)
	DirZtoY                     // z-pencils -> y-pencils (CommB)
	DirZtoX                     // z-pencils -> x-pencils (CommA)
	DirXtoZ                     // x-pencils -> z-pencils (CommA)
	numDirs
)

// String names the direction the way the tables in the paper do (the
// canonical internal/schedule direction vocabulary).
func (d TransposeDir) String() string {
	switch d {
	case DirYtoZ:
		return schedule.DirYtoZ
	case DirZtoY:
		return schedule.DirZtoY
	case DirZtoX:
		return schedule.DirZtoX
	case DirXtoZ:
		return schedule.DirXtoZ
	}
	return fmt.Sprintf("TransposeDir(%d)", int(d))
}

// commOp maps a transpose direction to its telemetry communication
// counter.
func commOp(d TransposeDir) telemetry.CommOp {
	switch d {
	case DirYtoZ:
		return telemetry.CommYtoZ
	case DirZtoY:
		return telemetry.CommZtoY
	case DirZtoX:
		return telemetry.CommZtoX
	case DirXtoZ:
		return telemetry.CommXtoZ
	}
	panic(fmt.Sprintf("pencil: no comm op for direction %d", int(d)))
}

// Decomp carries the grid extents, the process grid and its two
// sub-communicators, and the worker pool used for pack/unpack loops.
//
// Spectral extents: NKx one-sided x modes (Nyquist dropped), NZ z modes in
// wrap order (Nyquist slot zero), NY wall-normal points.
//
// Layouts (row major, last index fastest):
//
//	y-pencil: [kxLoc][kzLoc][NY]      kx over CommA, kz over CommB
//	z-pencil: [kxLoc][yLoc][zLen]     kx over CommA, y over CommB
//	x-pencil: [yLoc][zLocA][NKx]      z over CommA,  y over CommB
type Decomp struct {
	NKx, NZ, NY int
	PA, PB      int

	Cart *mpi.CartComm // full grid, dims {PA, PB}
	A    *mpi.CartComm // CommA: row of the process grid, size PA
	B    *mpi.CartComm // CommB: column of the process grid, size PB

	ca, cb int // this rank's coordinates in the process grid
	Pool   *par.Pool

	// Overlap makes RunPipelined (and YtoZPipelined) the chunked exchange:
	// each transpose moves in pieces along the line axis the exchange does
	// not redistribute, every peer message is unpacked the moment it
	// arrives, and completed line ranges go to the caller's consume hook.
	// Results are bit-identical to Run's. The solver, the FFT kernels and
	// the tools all run the blocking Run, as the paper does; the chunked
	// form stays only because the benchmark module's layers.go times
	// YtoZPipelined (pencil.ytoz_pipelined_us), and goes with that caller
	// (ROADMAP item 3b).
	Overlap bool

	// PipelineChunks is the pipeline depth of the chunked exchange: how
	// many pieces RunPipelined splits the chunk axis into. 0 selects the
	// default (4); the effective depth is clamped to the chunk-axis extent.
	PipelineChunks int

	// Telemetry, when non-nil, receives a PhaseTransposeAB timing sample
	// and per-direction comm counters for every transpose Run. Nil is a
	// valid no-op sink; the recording path allocates nothing either way.
	Telemetry *telemetry.Collector

	// Trace, when non-nil, records each transpose's wire interval (the
	// alltoallv between pack and unpack) as a flight-recorder exchange
	// event, giving the straggler analysis the communication window inside
	// the aggregate PhaseTransposeAB span.
	Trace *trace.Recorder

	plans map[planKey]*TransposePlan
}

// New builds the decomposition on the world communicator, imposing a
// PA x PB cartesian grid. Ranks are assigned so that consecutive world
// ranks share a CommB group — the arrangement the paper uses to keep CommB
// node-local. Every rank must call New collectively.
func New(world *mpi.Comm, pa, pb, nkx, nz, ny int, pool *par.Pool) *Decomp {
	if pa*pb != world.Size() {
		panic(fmt.Sprintf("pencil: grid %dx%d != world size %d", pa, pb, world.Size()))
	}
	cart := world.CartCreate([]int{pa, pb})
	a := cart.CartSub([]bool{true, false})
	b := cart.CartSub([]bool{false, true})
	co := cart.Coords()
	return &Decomp{
		NKx: nkx, NZ: nz, NY: ny,
		PA: pa, PB: pb,
		Cart: cart, A: a, B: b,
		ca: co[0], cb: co[1],
		Pool:  pool,
		plans: map[planKey]*TransposePlan{},
	}
}

// KxRange returns this rank's one-sided x-mode range (distributed over CommA).
func (d *Decomp) KxRange() (int, int) { return Chunk(d.NKx, d.PA, d.ca) }

// KzRangeY returns this rank's z-mode range in the y-pencil configuration
// (distributed over CommB).
func (d *Decomp) KzRangeY() (int, int) { return Chunk(d.NZ, d.PB, d.cb) }

// YRange returns this rank's wall-normal range in the z- and x-pencil
// configurations (distributed over CommB).
func (d *Decomp) YRange() (int, int) { return Chunk(d.NY, d.PB, d.cb) }

// ZRangeX returns this rank's z range in the x-pencil configuration for a
// z extent of zLen points (distributed over CommA). zLen is NZ for spectral
// data or the padded physical size 3*NZ/2.
func (d *Decomp) ZRangeX(zLen int) (int, int) { return Chunk(zLen, d.PA, d.ca) }

// YPencilLen returns the local y-pencil length per field.
func (d *Decomp) YPencilLen() int {
	kl, kh := d.KxRange()
	zl, zh := d.KzRangeY()
	return (kh - kl) * (zh - zl) * d.NY
}

// ZPencilLen returns the local z-pencil length per field for z extent zLen.
func (d *Decomp) ZPencilLen(zLen int) int {
	kl, kh := d.KxRange()
	yl, yh := d.YRange()
	return (kh - kl) * (yh - yl) * zLen
}

// XPencilLen returns the local x-pencil length per field for z extent zLen.
func (d *Decomp) XPencilLen(zLen int) int {
	yl, yh := d.YRange()
	zl, zh := d.ZRangeX(zLen)
	return (yh - yl) * (zh - zl) * d.NKx
}

// YtoZ transposes fields from y-pencils to spectral z-pencils (z extent NZ)
// inside CommB. Paper step (a). dst and src are per-field slices; dst may
// be nil, in which case new slices are allocated (steady-state callers pass
// reused destinations to keep the path allocation-free).
func (d *Decomp) YtoZ(dst, src [][]complex128) [][]complex128 {
	return d.Plan(DirYtoZ, d.NZ, len(src)).Run(dst, src)
}

// ZtoY transposes fields from spectral z-pencils back to y-pencils inside
// CommB; the inverse of YtoZ (paper step (h) tail).
func (d *Decomp) ZtoY(dst, src [][]complex128) [][]complex128 {
	return d.Plan(DirZtoY, d.NZ, len(src)).Run(dst, src)
}

// ZtoX transposes fields from z-pencils (z extent zLen, typically the padded
// physical 3*NZ/2) to x-pencils inside CommA. Paper step (d).
func (d *Decomp) ZtoX(dst, src [][]complex128, zLen int) [][]complex128 {
	return d.Plan(DirZtoX, zLen, len(src)).Run(dst, src)
}

// XtoZ transposes fields from x-pencils back to z-pencils (z extent zLen)
// inside CommA; the inverse of ZtoX.
func (d *Decomp) XtoZ(dst, src [][]complex128, zLen int) [][]complex128 {
	return d.Plan(DirXtoZ, zLen, len(src)).Run(dst, src)
}

// YtoZPipelined is YtoZ through RunPipelined: consume(lo, hi) is called
// with ascending, disjoint local-kx ranges as their z-pencil lines complete,
// covering [0, nkxLoc) in total. With Overlap off (or PB == 1) the transpose
// runs serially and consume fires once over the full range. Its one caller
// is the benchmark module's layers.go; it goes with that caller (ROADMAP
// item 3b).
func (d *Decomp) YtoZPipelined(dst, src [][]complex128, consume func(lo, hi int)) [][]complex128 {
	return d.Plan(DirYtoZ, d.NZ, len(src)).RunPipelined(dst, src, consume)
}

// AllocFields allocates nf zeroed fields of n complex elements each, the
// shape every transpose destination takes. Callers that want the
// zero-allocation steady state allocate destinations once with this and
// pass them to every transpose call.
func AllocFields(nf, n int) [][]complex128 {
	out := make([][]complex128, nf)
	for i := range out {
		out[i] = make([]complex128, n)
	}
	return out
}

// Reorder performs the on-node transpose A(i,j,k) -> A(j,k,i) of paper
// §4.2, dividing the work into independent pieces across the pool to keep
// multiple memory streams in flight. src is ni x nj x nk row-major; dst is
// nj x nk x ni row-major.
func Reorder(dst, src []complex128, ni, nj, nk int, pool *par.Pool) {
	if len(dst) < ni*nj*nk || len(src) < ni*nj*nk {
		panic("pencil: Reorder slice lengths")
	}
	// Both blocks walk dst's order [j][k][i]; the pool splits over j.
	sb := block{n: [3]int{nj, nk, ni}, s: [3]int{nk, 1, nj * nk}}
	db := block{n: sb.n, s: [3]int{nk * ni, ni, 1}}
	pool.ForBlocks(nj, func(lo, hi int) { copyBlock(dst, db.lines(lo, hi), src, sb.lines(lo, hi)) })
}
