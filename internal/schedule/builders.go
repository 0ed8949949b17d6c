package schedule

// Builders: each constructs the op list of one paper benchmark program from
// the same quantities the live code is configured with (grid extents,
// process grid, kernel kind). internal/core, internal/pencil and
// internal/parfft expose thin wrappers that call these with their own
// fields, so the schedule is derived from the executing objects rather than
// re-encoded by hand.

// solveBandwidth is the band half-width of the wall-normal solves: the
// B-spline collocation operators of order 8 couple 8 neighbouring
// coefficients on each side of the diagonal.
const solveBandwidth = 8

// TimestepParams describes one RK3 timestep program.
type TimestepParams struct {
	Nx, Ny, Nz int
	// PA, PB is the CommA x CommB process grid (ranks = PA*PB).
	PA, PB int
	// Products is the number of fields carried back through the forward
	// path: 5 in the paper's accounting (uu, uv, uw, vv+ww terms folded),
	// 6 in this repo's live divergence-form pipeline (uu,uv,uw,vv,vw,ww).
	Products int
	// PackPasses is the number of on-node memory passes for pack+unpack
	// around each transpose (4: pack read+write, unpack read+write).
	// Zero suppresses the Reorder ops entirely.
	PackPasses float64
	// ChunksA, ChunksB are the pipeline depths of the overlapped (chunked)
	// exchange on the CommA and CommB directions — pencil.Decomp
	// OverlapChunks() when the live run pipelines, 0 when it runs the
	// one-shot serial exchange. Both > 0 switches the program to its
	// overlapped form: the YtoZ, ZtoX and XtoZ transposes fuse with the FFT
	// stage each hides (OpOverlap), the final ZtoY stays a one-shot
	// transpose (nothing follows to hide it under).
	ChunksA, ChunksB int
}

// Timestep builds one full RK3 timestep: three substeps, each running the
// §2.3 excursion (see Schedule.excursion) with the three velocities out and
// Products fields back, then the implicit banded advance.
func Timestep(p TimestepParams) *Schedule {
	s := p.header("timestep")
	overlapped := p.ChunksA > 0 && p.ChunksB > 0
	for sub := 1; sub <= 3; sub++ {
		s.excursion(sub, p, 3, p.Products, overlapped)
		s.solve(sub, p, solveBandwidth, NSFlopsPerPoint)
	}
	return s
}

// solve appends the per-mode wall-normal advance of substep sub: one system
// of the given bandwidth per (kx, kz) mode, priced per grid point.
func (s *Schedule) solve(sub int, p TimestepParams, bandwidth int, flopsPerPoint float64) {
	s.Ops = append(s.Ops, Op{
		Kind: OpSolve, Phase: PhaseViscousSolve.String(), Sub: sub,
		Systems: s.NKx * p.Nz, Bandwidth: bandwidth,
		Flops: float64(s.NKx) * float64(p.Nz) * float64(p.Ny) * flopsPerPoint,
	})
}

// header starts a timestep-family schedule: name and identity, no ops.
func (p TimestepParams) header(name string) *Schedule {
	return &Schedule{
		Name: name,
		Nx:   p.Nx, Ny: p.Ny, Nz: p.Nz, NKx: p.Nx / 2,
		PA: p.PA, PB: p.PB, Ranks: p.PA * p.PB,
	}
}

// excursion appends one dealiased out-and-back pass of substep sub, the
// program parfft.Excursion executes: y->z transpose of in fields, inverse z
// FFT onto the 3/2 grid, z->x transpose, the fused x excursion (inverse
// transform of the in fields, pointwise products, forward transform of the
// out fields), x->z transpose, forward z FFT, z->y transpose.
//
// The overlapped form fuses each forward-path transpose with the FFT stage
// consuming its chunks (OpOverlap). The x excursion runs entirely inside the
// ZtoX consumer, so its two stages' flops ride one overlap op. The return
// leg has no following transform to hide under: it stays a one-shot exchange
// in both forms.
func (s *Schedule) excursion(sub int, p TimestepParams, in, out int, overlapped bool) {
	mx, mz := 3*p.Nx/2, 3*p.Nz/2
	fieldBytes := 16 * float64(s.NKx) * float64(p.Nz) * float64(p.Ny) / float64(s.Ranks)
	padBytes := fieldBytes * 1.5
	linesZ := s.NKx * p.Ny
	linesX := mz * p.Ny
	stage := func(phase Phase, axis string, inverse bool, fields, lines, points int) Op {
		isReal := axis == "x"
		return Op{
			Kind: OpFFT, Phase: phase.String(), Sub: sub,
			Axis: axis, Inverse: inverse, Real: isReal, Padded: true,
			Fields: fields, Lines: lines, Points: points,
			Flops: float64(fields) * float64(lines) * FFTFlops(points, isReal),
		}
	}
	zInv := stage(PhaseFFTInverse, "z", true, in, linesZ, mz)
	xInv := stage(PhaseNonlinear, "x", true, in, linesX, mx)
	xFwd := stage(PhaseNonlinear, "x", false, out, linesX, mx)
	zFwd := stage(PhaseFFTForward, "z", false, out, linesZ, mz)
	if overlapped {
		xInv.Flops = float64(in+out) * float64(linesX) * FFTFlops(mx, true)
		s.overlap(sub, DirYtoZ, "B", p.PB, in, fieldBytes*float64(in), p.PackPasses, p.ChunksB, zInv)
		s.overlap(sub, DirZtoX, "A", p.PA, in, padBytes*float64(in), p.PackPasses, p.ChunksA, xInv)
		s.overlap(sub, DirXtoZ, "A", p.PA, out, padBytes*float64(out), p.PackPasses, p.ChunksA, zFwd)
	} else {
		s.transpose(sub, DirYtoZ, "B", p.PB, in, fieldBytes*float64(in), p.PackPasses, 0)
		s.Ops = append(s.Ops, zInv)
		s.transpose(sub, DirZtoX, "A", p.PA, in, padBytes*float64(in), p.PackPasses, 0)
		s.Ops = append(s.Ops, xInv, xFwd)
		s.transpose(sub, DirXtoZ, "A", p.PA, out, padBytes*float64(out), p.PackPasses, 0)
		s.Ops = append(s.Ops, zFwd)
	}
	s.transpose(sub, DirZtoY, "B", p.PB, out, fieldBytes*float64(out), p.PackPasses, 0)
}

// IsoSolveFlopsPerPoint prices the isotropic workload's per-point spectral
// update: nonlinear-term assembly from the six product spectra, the
// divergence-free projection and the diagonal IMEX advance for three
// velocity components — a few tens of flops, nothing like the banded
// channel solve.
const IsoSolveFlopsPerPoint = 60.0

// ScalarSolveFlopsPerPoint prices the passive scalar's per-point implicit
// work: one banded solve plus the divergence assembly of the scalar flux —
// roughly a quarter of the three-component Navier-Stokes advance.
const ScalarSolveFlopsPerPoint = 500.0

// IsotropicTimestep builds one RK3 timestep of the triply-periodic
// isotropic-turbulence workload: per substep, an inverse y FFT brings the
// three velocity fields to y-physical space, the channel's excursion
// evaluates the six dealiased products, a forward y FFT returns the
// products to fully spectral space, and a diagonal (bandwidth-0) per-mode
// projection + IMEX advance replaces the channel's banded wall-normal
// solve. The transposes move exactly the channel's images, so the pencil
// layer needs no new machinery.
func IsotropicTimestep(p TimestepParams) *Schedule {
	s := p.header("isotropic_timestep")
	linesY := s.NKx * p.Nz
	yFFT := func(sub int, phase Phase, inverse bool, fields int) Op {
		return Op{
			Kind: OpFFT, Phase: phase.String(), Sub: sub,
			Axis: "y", Inverse: inverse,
			Fields: fields, Lines: linesY, Points: p.Ny,
			Flops: float64(fields) * float64(linesY) * FFTFlops(p.Ny, false),
		}
	}
	for sub := 1; sub <= 3; sub++ {
		s.Ops = append(s.Ops, yFFT(sub, PhaseFFTInverse, true, 3))
		s.excursion(sub, p, 3, p.Products, false)
		s.Ops = append(s.Ops, yFFT(sub, PhaseFFTForward, false, p.Products))
		s.solve(sub, p, 0, IsoSolveFlopsPerPoint)
	}
	return s
}

// ScalarTimestep builds one RK3 timestep of the passive-scalar workload: the
// channel timestep with the scalar riding its excursion — the three
// velocities and the scalar go out to the dealiased physical grid (4 fields),
// the Products momentum fields and the three flux products (u*th, v*th,
// w*th) come back — and the scalar's banded implicit solve after the
// momentum one.
func ScalarTimestep(p TimestepParams) *Schedule {
	s := p.header("scalar_timestep")
	for sub := 1; sub <= 3; sub++ {
		s.excursion(sub, p, 4, p.Products+3, false)
		s.solve(sub, p, solveBandwidth, NSFlopsPerPoint)
		s.solve(sub, p, solveBandwidth, ScalarSolveFlopsPerPoint)
	}
	return s
}

// TransposeCycleParams describes the Table 5 program: one full transpose
// cycle (y -> z -> x then back) on the spectral grid, no FFT work.
type TransposeCycleParams struct {
	Nx, Ny, Nz int
	// NKx is the one-sided x mode count actually transported; 0 means Nx/2
	// (Nyquist dropped, the channel code's layout).
	NKx    int
	PA, PB int
	Fields int
	// PackPasses as in TimestepParams. Table 5 times the wire exchange
	// only, so the paper rows use 0; the live cycle packs and unpacks.
	PackPasses float64
	// ChunksA, ChunksB as in TimestepParams. The cycle has no FFT stage to
	// hide under, so overlap here means chunked transposes (the pipelined
	// exchange with a nil consumer), not fused overlap ops.
	ChunksA, ChunksB int
}

// TransposeCycle builds the Table 5 benchmark: four global transposes on
// Fields fields, no transforms.
func TransposeCycle(p TransposeCycleParams) *Schedule {
	nkx := p.NKx
	if nkx == 0 {
		nkx = p.Nx / 2
	}
	ranks := p.PA * p.PB
	bytes := 16 * float64(nkx) * float64(p.Nz) * float64(p.Ny) / float64(ranks) * float64(p.Fields)
	s := &Schedule{
		Name: "transpose_cycle",
		Nx:   p.Nx, Ny: p.Ny, Nz: p.Nz, NKx: nkx,
		PA: p.PA, PB: p.PB, Ranks: ranks,
	}
	s.transpose(0, DirYtoZ, "B", p.PB, p.Fields, bytes, p.PackPasses, p.ChunksB)
	s.transpose(0, DirZtoX, "A", p.PA, p.Fields, bytes, p.PackPasses, p.ChunksA)
	s.transpose(0, DirXtoZ, "A", p.PA, p.Fields, bytes, p.PackPasses, p.ChunksA)
	s.transpose(0, DirZtoY, "B", p.PB, p.Fields, bytes, p.PackPasses, p.ChunksB)
	return s
}

// FFTKind selects the parallel FFT implementation of Table 6.
type FFTKind int

// Parallel FFT kernels compared in Table 6.
const (
	// FFTCustom is the paper's customized kernel: Nyquist dropped (Nx/2
	// one-sided modes), 4-pass pack/unpack, 1x communication scratch
	// (2.5x resident total).
	FFTCustom FFTKind = iota
	// FFTP3DFFT is the P3DFFT 2.5.1 baseline: Nyquist carried (Nx/2+1),
	// 6-pass reordering, 3x buffers (6x resident total).
	FFTP3DFFT
)

// NKx returns the one-sided x mode count the kind carries for an Nx grid.
func (k FFTKind) NKx(nx int) int {
	if k == FFTCustom {
		return nx / 2
	}
	return nx/2 + 1
}

// PackPasses returns the kind's on-node reorder passes per transpose.
func (k FFTKind) PackPasses() float64 {
	if k == FFTCustom {
		return 4
	}
	return 6
}

// ResidentFactor returns the kind's working-set multiple of one field.
func (k FFTKind) ResidentFactor() float64 {
	if k == FFTCustom {
		return 2.5
	}
	return 6
}

// FFTCycleParams describes the Table 6 program: one parallel-FFT round trip
// (four transposes, four FFT stages, no 3/2 padding, y untouched).
type FFTCycleParams struct {
	Nx, Ny, Nz int
	PA, PB     int
	Fields     int
	Kind       FFTKind
	// ChunksA, ChunksB as in TimestepParams: both > 0 emits the overlapped
	// program (legs 1-3 fused with their FFT stages, final ZtoY one-shot).
	ChunksA, ChunksB int
}

// FFTCycle builds the Table 6 benchmark for one kernel kind.
func FFTCycle(p FFTCycleParams) *Schedule {
	nkx := p.Kind.NKx(p.Nx)
	ranks := p.PA * p.PB
	fieldBytes := 16 * float64(nkx) * float64(p.Nz) * float64(p.Ny) / float64(ranks)
	bytes := fieldBytes * float64(p.Fields)
	passes := p.Kind.PackPasses()
	linesZ := nkx * p.Ny
	linesX := p.Nz * p.Ny
	s := &Schedule{
		Name: "fft_cycle",
		Nx:   p.Nx, Ny: p.Ny, Nz: p.Nz, NKx: nkx,
		PA: p.PA, PB: p.PB, Ranks: ranks,
		ResidentBytesPerRank: bytes * p.Kind.ResidentFactor(),
	}
	if p.ChunksA > 0 && p.ChunksB > 0 {
		s.overlap(0, DirYtoZ, "B", p.PB, p.Fields, bytes, passes, p.ChunksB, Op{
			Phase: PhaseFFTInverse.String(),
			Axis:  "z", Inverse: true,
			Lines: linesZ, Points: p.Nz,
			Flops: float64(p.Fields) * float64(linesZ) * FFTFlops(p.Nz, false),
		})
		// The fused x excursion (inverse then forward, one block in the live
		// kernel, timed under the forward-FFT phase) rides the ZtoX overlap.
		s.overlap(0, DirZtoX, "A", p.PA, p.Fields, bytes, passes, p.ChunksA, Op{
			Phase: PhaseFFTForward.String(),
			Axis:  "x", Inverse: true, Real: true,
			Lines: linesX, Points: p.Nx,
			Flops: 2 * float64(p.Fields) * float64(linesX) * FFTFlops(p.Nx, true),
		})
		s.overlap(0, DirXtoZ, "A", p.PA, p.Fields, bytes, passes, p.ChunksA, Op{
			Phase: PhaseFFTForward.String(),
			Axis:  "z",
			Lines: linesZ, Points: p.Nz,
			Flops: float64(p.Fields) * float64(linesZ) * FFTFlops(p.Nz, false),
		})
		s.transpose(0, DirZtoY, "B", p.PB, p.Fields, bytes, passes, 0)
		return s
	}
	s.transpose(0, DirYtoZ, "B", p.PB, p.Fields, bytes, passes, 0)
	s.Ops = append(s.Ops, Op{
		Kind: OpFFT, Phase: PhaseFFTInverse.String(),
		Axis: "z", Inverse: true,
		Fields: p.Fields, Lines: linesZ, Points: p.Nz,
		Flops: float64(p.Fields) * float64(linesZ) * FFTFlops(p.Nz, false),
	})
	s.transpose(0, DirZtoX, "A", p.PA, p.Fields, bytes, passes, 0)
	// The x excursion (inverse then forward, one fused block in the live
	// kernel) is timed under the forward-FFT phase by parfft.
	s.Ops = append(s.Ops, Op{
		Kind: OpFFT, Phase: PhaseFFTForward.String(),
		Axis: "x", Inverse: true, Real: true,
		Fields: p.Fields, Lines: linesX, Points: p.Nx,
		Flops: float64(p.Fields) * float64(linesX) * FFTFlops(p.Nx, true),
	})
	s.Ops = append(s.Ops, Op{
		Kind: OpFFT, Phase: PhaseFFTForward.String(),
		Axis: "x", Real: true,
		Fields: p.Fields, Lines: linesX, Points: p.Nx,
		Flops: float64(p.Fields) * float64(linesX) * FFTFlops(p.Nx, true),
	})
	s.transpose(0, DirXtoZ, "A", p.PA, p.Fields, bytes, passes, 0)
	s.Ops = append(s.Ops, Op{
		Kind: OpFFT, Phase: PhaseFFTForward.String(),
		Axis:   "z",
		Fields: p.Fields, Lines: linesZ, Points: p.Nz,
		Flops: float64(p.Fields) * float64(linesZ) * FFTFlops(p.Nz, false),
	})
	s.transpose(0, DirZtoY, "B", p.PB, p.Fields, bytes, passes, 0)
	return s
}

// transpose appends one wire transpose (and, when passes > 0, its on-node
// pack/unpack reorder) to the schedule. chunks > 0 makes it a chunked
// pipelined exchange: Chunks per-peer messages instead of one.
func (s *Schedule) transpose(sub int, dir, comm string, commSize, fields int, bytesPerRank, passes float64, chunks int) {
	messages := commSize - 1
	if chunks > 0 {
		messages = chunks * (commSize - 1)
	}
	s.Ops = append(s.Ops, Op{
		Kind: OpTranspose, Phase: PhaseTransposeAB.String(), Sub: sub,
		Dir: dir, Comm: comm, CommSize: commSize, Fields: fields,
		BytesPerRank: bytesPerRank, Messages: messages, Chunks: chunks,
	})
	if passes > 0 {
		s.Ops = append(s.Ops, Op{
			Kind: OpReorder, Phase: PhaseTransposeAB.String(), Sub: sub,
			Dir: dir, CommSize: commSize, Fields: fields,
			BytesPerRank: bytesPerRank, Passes: passes,
		})
	}
}

// overlap appends one pipelined transpose fused with the FFT stage it hides
// (plus, when passes > 0, its reorder). fft supplies the hidden stage's
// Axis/Inverse/Real/Padded/Lines/Points/Flops and — through its Phase field
// — the FFTPhase the compute is attributed to; the transpose's exposed part
// stays on the transpose phase.
func (s *Schedule) overlap(sub int, dir, comm string, commSize, fields int, bytesPerRank, passes float64, chunks int, fft Op) {
	s.Ops = append(s.Ops, Op{
		Kind: OpOverlap, Phase: PhaseTransposeAB.String(), Sub: sub,
		Dir: dir, Comm: comm, CommSize: commSize, Fields: fields,
		BytesPerRank: bytesPerRank,
		Messages:     chunks * (commSize - 1),
		Chunks:       chunks,
		FFTPhase:     fft.Phase,
		Axis:         fft.Axis, Inverse: fft.Inverse, Real: fft.Real, Padded: fft.Padded,
		Lines: fft.Lines, Points: fft.Points,
		Flops: fft.Flops,
	})
	if passes > 0 {
		s.Ops = append(s.Ops, Op{
			Kind: OpReorder, Phase: PhaseTransposeAB.String(), Sub: sub,
			Dir: dir, CommSize: commSize, Fields: fields,
			BytesPerRank: bytesPerRank, Passes: passes,
		})
	}
}
