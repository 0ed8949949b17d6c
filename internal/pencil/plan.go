package pencil

import (
	"fmt"
	"time"

	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
)

// planKey identifies one reusable transpose plan: the direction, the
// z extent carried through the CommA exchanges (spectral NZ or the padded
// physical 3*NZ/2), and the number of fields moved per call.
type planKey struct {
	dir  TransposeDir
	zLen int
	nf   int
}

// defaultPipelineChunks is the pipeline depth RunPipelined uses when
// Decomp.PipelineChunks is unset: enough stages that the exposed tail is a
// quarter of the wire time, shallow enough that per-message overhead stays
// negligible against the pencil block sizes.
const defaultPipelineChunks = 4

// TransposePlan is the preplanned form of one global transpose: the
// alltoallv count/displacement tables, the persistent send and receive
// buffers, and the block each peer's data occupies on either side, so the
// steady-state Run path allocates nothing. Plans are owned by a Decomp and
// obtained with Decomp.Plan; the four transpose methods use them internally.
//
// A direction is a pair of pencil sides (sides): peer b's block on the
// source side, in wire order, is what this rank packs for b, and its block on
// the destination side is where b's data lands. Pack, unpack and the move of
// the own block are each a copyBlock between those blocks and a buffer or
// each other. Only the blocks bound for other ranks are packed, exchanged and
// unpacked, so the tables give this rank's own block 0 elements and the
// buffers hold the remote blocks alone (nothing at P = 1). The own block
// moves once, src -> dst, pool-parallel over lines.
//
// Every plan also knows how to run chunked: the kernels take a line range
// over the chunk axis — the line coordinate of the pencil that is NOT
// redistributed by the exchange (local kx for the CommB directions, local y
// for the CommA directions) — so RunPipelined can move the transpose
// through the wire in chunks and hand each completed line range to a
// consumer while later chunks are still in flight.
type TransposePlan struct {
	d    *Decomp
	dir  TransposeDir
	comm *mpi.Comm
	np   int // peer count (PB for CommB directions, PA for CommA)
	nf   int
	zLen int

	srcLen, dstLen int // per-field lengths

	// lineN is the chunk-axis extent. The tables count 0 for this rank.
	lineN                  int
	sendCounts, sendDispls []int
	recvCounts, recvDispls []int
	sbuf, rbuf             []complex128
	// pbuf is the buffer the pack kernels write to: sbuf for the serial
	// exchange, the current parity's wire arena for the pipelined one.
	pbuf []complex128

	// Per-call bindings read by the bound kernels; set by Run/RunPipelined
	// before the pack/unpack loops and cleared afterwards.
	src, dst [][]complex128

	// send[b] and recv[b] are peer b's blocks in this rank's source and
	// destination pencils, in wire order; ownSrc/ownDst are this rank's own
	// pair with the axes in the destination's memory order.
	send, recv     []block
	ownSrc, ownDst block
	move           func(lo, hi int) // the own block's lines [lo, hi)
	pack           func(lo, hi int) // pool-block forms over the remote peers,
	unpack         func(lo, hi int) // full chunk axis (the serial exchange)

	// Pipelined-exchange state, built lazily by ensurePipeline. The
	// chunk-major tables index [c*np+b]; everything — including the wire
	// arenas the messages travel in and their pre-boxed payload values — is
	// pre-sized, so the steady-state RunPipelined performs no per-message
	// allocation at all.
	chunks                         int
	pipeSendCounts, pipeSendDispls []int
	pipeRecvCounts, pipeRecvDispls []int
	stream                         *mpi.Stream
	idxChunk, idxPeer              []int // posted stream index -> (chunk, peer)
	arrived                        []int // per-chunk arrival counters, reused
	curChunk                       int
	pipePack                       func(lo, hi int)
	// Parity double-buffered wire arenas: exchange k packs into wire[k%2],
	// which peers read in place (mpi.StreamSendPrepacked — no eager copy).
	// Reuse happens two exchanges later, by which point every peer has
	// provably drained the older exchange: a peer cannot send in exchange
	// k+1 before it finished unpacking all of exchange k. wireBox holds the
	// arenas' per-(chunk, peer) subslices pre-converted to `any`, so the hot
	// path pays no interface-boxing allocation either.
	wire    [2][]complex128
	wireBox [2][]any
	parity  int
}

// tables computes the count/displacement tables of the remote blocks with
// the chunk axis split into C chunks, chunk-major (index c*np+b): the serial
// exchange's at C = 1, the pipelined one's at C = Chunks(). It returns the
// tables and the total send/receive lengths.
func (p *TransposePlan) tables(C int) (sc, sd, rc, rd []int, stot, rtot int) {
	sc, sd, rc, rd = make([]int, C*p.np), make([]int, C*p.np), make([]int, C*p.np), make([]int, C*p.np)
	for c := 0; c < C; c++ {
		lo, hi := Chunk(p.lineN, C, c)
		for b := 0; b < p.np; b++ {
			i := c*p.np + b
			if b != p.comm.Rank() {
				sc[i], rc[i] = p.nf*p.send[b].lines(lo, hi).len(), p.nf*p.recv[b].lines(lo, hi).len()
			}
			sd[i], rd[i] = stot, rtot
			stot += sc[i]
			rtot += rc[i]
		}
	}
	return sc, sd, rc, rd, stot, rtot
}

// Plan returns the reusable transpose plan for (dir, zLen, nf), building
// it on first use. zLen is the z extent for the CommA directions; the
// CommB directions always carry the spectral extent NZ.
func (d *Decomp) Plan(dir TransposeDir, zLen, nf int) *TransposePlan {
	if dir == DirYtoZ || dir == DirZtoY {
		zLen = d.NZ
	}
	key := planKey{dir: dir, zLen: zLen, nf: nf}
	if p, ok := d.plans[key]; ok {
		return p
	}
	p := d.buildPlan(dir, zLen, nf)
	d.plans[key] = p
	return p
}

// side is one pencil's part in an exchange. Its block for peer b is the part
// of this rank's pencil that goes to or comes from b, in wire order.
type side int

const (
	sideYB side = iota // y-pencil over CommB: [kx][kz][y in b's chunk]
	sideZB             // z-pencil over CommB: [kx][kz in b's chunk][y]
	sideZA             // z-pencil over CommA: [kx][y][z in a's chunk]
	sideXA             // x-pencil over CommA: [kx in a's chunk][y][z]
)

// sides is each direction's (source, destination) pair.
var sides = [numDirs][2]side{
	DirYtoZ: {sideYB, sideZB}, DirZtoY: {sideZB, sideYB},
	DirZtoX: {sideZA, sideXA}, DirXtoZ: {sideXA, sideZA},
}

// sideBlock is peer b's block of side s at z extent zLen (the CommA sides;
// the CommB ones carry NZ). Its chunk axis is the one the exchange does not
// redistribute: local kx over CommB, local y over CommA.
func (d *Decomp) sideBlock(s side, b, zLen int) block {
	kl, kh := d.KxRange()
	yl, yh := d.YRange()
	zl, zh := d.KzRangeY()
	xl, xh := d.ZRangeX(zLen)
	nkx, ny, nkz, nz := kh-kl, yh-yl, zh-zl, xh-xl
	switch s {
	case sideYB:
		lo, hi := Chunk(d.NY, d.PB, b)
		return block{n: [3]int{nkx, nkz, hi - lo}, s: [3]int{nkz * d.NY, d.NY, 1}, off: lo}
	case sideZB:
		lo, hi := Chunk(d.NZ, d.PB, b)
		return block{n: [3]int{nkx, hi - lo, ny}, s: [3]int{ny * d.NZ, 1, d.NZ}, off: lo}
	case sideZA:
		lo, hi := Chunk(zLen, d.PA, b)
		return block{n: [3]int{nkx, ny, hi - lo}, s: [3]int{ny * zLen, zLen, 1}, off: lo, la: 1}
	}
	lo, hi := Chunk(d.NKx, d.PA, b)
	return block{n: [3]int{hi - lo, ny, nz}, s: [3]int{1, nz * d.NKx, d.NKx}, off: lo, la: 1}
}

func (d *Decomp) buildPlan(dir TransposeDir, zLen, nf int) *TransposePlan {
	p := &TransposePlan{d: d, dir: dir, nf: nf, zLen: zLen}
	switch dir {
	case DirYtoZ, DirZtoY:
		p.comm, p.np = d.B.Comm, d.PB
	case DirZtoX, DirXtoZ:
		p.comm, p.np = d.A.Comm, d.PA
	default:
		panic(fmt.Sprintf("pencil: unknown transpose direction %d", int(dir)))
	}
	// The pencil lengths and the tables follow from the blocks. The own block
	// never enters a buffer: move carries it.
	p.send, p.recv = make([]block, p.np), make([]block, p.np)
	for b := range p.send {
		p.send[b], p.recv[b] = d.sideBlock(sides[dir][0], b, zLen), d.sideBlock(sides[dir][1], b, zLen)
		p.srcLen += p.send[b].len()
		p.dstLen += p.recv[b].len()
	}
	own := p.send[p.comm.Rank()]
	p.lineN = own.n[own.la]
	p.ownSrc, p.ownDst = inDstOrder(own, p.recv[p.comm.Rank()])
	var stot, rtot int
	p.sendCounts, p.sendDispls, p.recvCounts, p.recvDispls, stot, rtot = p.tables(1)
	p.move = p.moveOwn
	p.pack = p.packPeers
	p.unpack = p.unpackPeers
	// Persistent buffers: one send and one receive image of the remote
	// blocks, reused for the life of the plan (the paper's 1x discipline,
	// §4.3, less the block that stays).
	p.sbuf = make([]complex128, stot)
	p.rbuf = make([]complex128, rtot)
	return p
}

// Chunks returns the pipeline depth RunPipelined will use for this plan:
// Decomp.PipelineChunks (default 4) clamped to the smallest chunk-axis
// extent owned by any rank of the communicator — floor(NKx/PA) lines of
// local kx for the CommB directions, floor(NY/PB) lines of local y for the
// CommA directions. Clamping to the global minimum (not the local extent)
// makes the depth identical on every rank, so per-call message counts are
// uniform and the schedule's chunked shape matches the measured traffic on
// uneven decompositions.
func (p *TransposePlan) Chunks() int {
	switch p.dir {
	case DirYtoZ, DirZtoY:
		return p.d.chunksFor(p.d.NKx / p.d.PA)
	default:
		return p.d.chunksFor(p.d.NY / p.d.PB)
	}
}

// chunksFor clamps the configured pipeline depth to a chunk-axis extent.
func (d *Decomp) chunksFor(minLine int) int {
	c := d.PipelineChunks
	if c <= 0 {
		c = defaultPipelineChunks
	}
	if c > minLine {
		c = minLine
	}
	if c < 1 {
		c = 1
	}
	return c
}

// OverlapChunks returns the pipeline depths the pipelined exchange uses on
// this decomposition — ca for the CommA directions (chunk axis: local y),
// cb for CommB (chunk axis: local kx) — or (0, 0) when overlap is off.
// Schedule emission uses this so the declared chunked shape is derived from
// the same clamping the executing plans apply.
func (d *Decomp) OverlapChunks() (ca, cb int) {
	if !d.Overlap {
		return 0, 0
	}
	return OverlapChunksFor(d.NKx, d.NY, d.PA, d.PB, d.PipelineChunks)
}

// OverlapChunksFor computes the same per-direction pipeline depths as
// Decomp.OverlapChunks from bare decomposition parameters (requested = 0
// selects the default depth). It lets schedule emitters describe an
// overlapped program without constructing a live decomposition.
func OverlapChunksFor(nkx, ny, pa, pb, requested int) (ca, cb int) {
	d := Decomp{NKx: nkx, NY: ny, PA: pa, PB: pb, PipelineChunks: requested}
	return d.chunksFor(ny / pb), d.chunksFor(nkx / pa)
}

// ensurePipeline builds the chunk-major tables, the stream, and the posted
// index maps on the plan's first pipelined run.
func (p *TransposePlan) ensurePipeline() {
	if p.stream != nil {
		return
	}
	np := p.np
	C := p.Chunks()
	p.chunks = C
	var spos int
	p.pipeSendCounts, p.pipeSendDispls, p.pipeRecvCounts, p.pipeRecvDispls, spos, _ = p.tables(C)
	for par := 0; par < 2; par++ {
		p.wire[par] = make([]complex128, spos)
		p.wireBox[par] = make([]any, C*np)
		for i, cnt := range p.pipeSendCounts {
			o := p.pipeSendDispls[i]
			p.wireBox[par][i] = p.wire[par][o : o+cnt]
		}
	}
	flight := C * (np - 1)
	p.stream = mpi.NewStream(p.comm, flight)
	p.idxChunk = make([]int, flight)
	p.idxPeer = make([]int, flight)
	me := p.comm.Rank()
	i := 0
	for c := 0; c < C; c++ {
		for s := 1; s < np; s++ {
			p.idxChunk[i] = c
			p.idxPeer[i] = (me - s + np) % np
			i++
		}
	}
	p.arrived = make([]int, C)
	p.pipePack = p.packChunk
}

// remote returns the s-th remote peer, s in [0, np-1): the ranks after this
// one in ring order.
func (p *TransposePlan) remote(s int) int { return (p.comm.Rank() + 1 + s) % p.np }

// packPeers and unpackPeers are the pool-block forms over the remote peers
// used by the serial exchange: each remote peer's full block at its table
// displacement.
func (p *TransposePlan) packPeers(lo, hi int) {
	for s := lo; s < hi; s++ {
		b := p.remote(s)
		p.packBlock(b, 0, p.lineN, p.sendDispls[b])
	}
}

func (p *TransposePlan) unpackPeers(lo, hi int) {
	for s := lo; s < hi; s++ {
		b := p.remote(s)
		p.unpackBlock(b, 0, p.lineN, p.rbuf, p.recvDispls[b])
	}
}

// packChunk is the pool-block form packing chunk curChunk of every remote
// peer in the range at the chunk-major displacements.
func (p *TransposePlan) packChunk(lo, hi int) {
	c := p.curChunk
	clo, chi := Chunk(p.lineN, p.chunks, c)
	for s := lo; s < hi; s++ {
		b := p.remote(s)
		p.packBlock(b, clo, chi, p.pipeSendDispls[c*p.np+b])
	}
}

// checkBuffers validates the per-field source and destination slices,
// allocating a destination when dst is nil.
func (p *TransposePlan) checkBuffers(dst, src [][]complex128) [][]complex128 {
	if len(src) != p.nf {
		panic(fmt.Sprintf("pencil: plan for %d fields got %d", p.nf, len(src)))
	}
	for f := range src {
		if len(src[f]) < p.srcLen {
			panic(fmt.Sprintf("pencil: %v src field %d length %d < %d", p.dir, f, len(src[f]), p.srcLen))
		}
	}
	if dst == nil {
		return AllocFields(p.nf, p.dstLen)
	}
	if len(dst) != p.nf {
		panic(fmt.Sprintf("pencil: plan for %d fields got %d dst", p.nf, len(dst)))
	}
	for f := range dst {
		if len(dst[f]) < p.dstLen {
			panic(fmt.Sprintf("pencil: %v dst field %d length %d < %d", p.dir, f, len(dst[f]), p.dstLen))
		}
	}
	return dst
}

// commBytes is the logical traffic of one call, the counters' and the
// schedule's unit: the whole send image plus the whole receive image, own
// block included, 16 bytes per complex element.
func (p *TransposePlan) commBytes() int64 { return int64(16 * p.nf * (p.srcLen + p.dstLen)) }

// Run executes the planned transpose: pack the remote blocks into the
// persistent send buffer, exchange into the persistent receive buffer,
// move the own block and unpack the remote ones into dst. A nil dst
// allocates fresh per-field slices; passing a reused dst makes the call
// allocation-free at steady state (aside from the per-message payload
// copies inside the in-process MPI).
func (p *TransposePlan) Run(dst, src [][]complex128) [][]complex128 {
	dst = p.checkBuffers(dst, src)
	d := p.d
	sp := d.Telemetry.Begin(telemetry.PhaseTransposeAB)
	p.src, p.dst = src, dst
	p.pbuf = p.sbuf
	d.Pool.ForBlocks(p.np-1, p.pack)
	var xt0 time.Time
	if d.Trace != nil {
		xt0 = time.Now()
	}
	if _, err := mpi.AlltoallvInto(p.comm, p.rbuf, p.sbuf, p.sendCounts, p.sendDispls, p.recvCounts, p.recvDispls); err != nil {
		panic(fmt.Errorf("pencil: %v exchange: %w", p.dir, err))
	}
	if d.Trace != nil {
		// The wire interval: the alltoallv alone, between pack and unpack —
		// nested inside the enclosing transpose phase span on the timeline.
		d.Trace.Exchange(commOp(p.dir), p.commBytes(), xt0, time.Now())
	}
	d.Pool.ForBlocks(p.lineN, p.move)
	d.Pool.ForBlocks(p.np-1, p.unpack)
	p.src, p.dst = nil, nil
	sp.End()
	// Messages: one per remote peer (the own block never crosses the
	// communicator).
	d.Telemetry.AddComm(commOp(p.dir), p.commBytes(), int64(p.np-1))
	return dst
}

// Book records one call of a transpose on a one-rank communicator without
// running it, then runs consume (if non-nil) over the whole line range, as
// RunPipelined does after its Run there. It is for a caller whose consumer
// addresses the source pencil in place, since such a transpose moves only the
// own block, by a fixed index map. What it records is what Run records: a
// PhaseTransposeAB span, one (empty) Exchange trace event, and commBytes()
// with np-1 = 0 messages, so the counters, the trace and the schedule IR
// cannot tell the two apart.
func (p *TransposePlan) Book(consume func(lo, hi int)) {
	if p.np != 1 {
		panic(fmt.Sprintf("pencil: %v booked on a %d-rank communicator", p.dir, p.np))
	}
	d := p.d
	sp := d.Telemetry.Begin(telemetry.PhaseTransposeAB)
	if d.Trace != nil {
		t := time.Now()
		d.Trace.Exchange(commOp(p.dir), p.commBytes(), t, t)
	}
	sp.End()
	d.Telemetry.AddComm(commOp(p.dir), p.commBytes(), 0)
	if consume != nil {
		consume(0, p.lineN)
	}
}

// RunPipelined executes the transpose as a chunked pipeline: the chunk axis
// is split into Chunks() pieces, each packed and sent per peer as its own
// stream message, and arrivals are unpacked the moment they land. After
// every chunk's receives are in, consume(lo, hi) is invoked with the
// completed chunk-axis line range — the hook through which the following
// FFT stage runs on already-received pencils while later chunks are still
// on the wire. consume may be nil. Callers must pass ranges to consume
// covering follow-on work for exactly the lines [lo, hi); RunPipelined
// guarantees the union of the ranges is [0, lineN) in ascending order.
//
// The destination is bit-identical to Run's: the same elements land in the
// same slots, only the order of the copies differs. When overlap is off or
// the communicator is trivial the call degrades to Run followed by a single
// consume over the full line range, so callers need no serial branch.
//
// The transpose phase span is segmented around each consume call: the
// consumer's own phase instrumentation runs outside PhaseTransposeAB, so
// phases still tile the step even though transpose and FFT work interleave.
func (p *TransposePlan) RunPipelined(dst, src [][]complex128, consume func(lo, hi int)) [][]complex128 {
	d := p.d
	if !d.Overlap || p.np == 1 {
		dst = p.Run(dst, src)
		if consume != nil {
			consume(0, p.lineN)
		}
		return dst
	}
	p.ensurePipeline()
	dst = p.checkBuffers(dst, src)
	np := p.np
	C := p.chunks
	me := p.comm.Rank()
	tracing := d.Trace != nil
	sp := d.Telemetry.Begin(telemetry.PhaseTransposeAB)
	p.src, p.dst = src, dst
	// Alternate wire arenas: peers read our chunks in place, and the
	// collective structure guarantees they have drained exchange k before we
	// repack its arena in exchange k+2 (see the wire field's comment).
	p.parity ^= 1
	p.pbuf = p.wire[p.parity]
	for c := range p.arrived[:C] {
		p.arrived[c] = 0
	}
	// Post every receive up front, chunk-major: the runtime's per-source
	// FIFO then guarantees peer b's k-th message completes the k-th posted
	// receive for b, so posted index identifies (chunk, peer) exactly.
	for c := 0; c < C; c++ {
		for s := 1; s < np; s++ {
			p.stream.Post((me - s + np) % np)
		}
	}
	var xt0, xt1 time.Time
	if tracing {
		xt0 = time.Now()
	}
	p.sendChunk(0)
	for c := 0; c < C; c++ {
		// Keep the pipe full: pack and fire the next chunk before draining
		// this one, so our peers always have our next block in flight while
		// we unpack and consume the current one.
		if c+1 < C {
			p.sendChunk(c + 1)
		}
		for p.arrived[c] < np-1 {
			var t0 time.Time
			if tracing {
				t0 = time.Now()
			}
			idx, b, payload := p.stream.Next()
			cc := p.idxChunk[idx]
			blk := payload.([]complex128)
			if len(blk) != p.pipeRecvCounts[cc*np+b] {
				panic(&mpi.CountMismatchError{Op: "pencil.RunPipelined", Rank: me, Src: b,
					Want: p.pipeRecvCounts[cc*np+b], Got: len(blk)})
			}
			if tracing {
				// The wait for this arrival: ~zero when the block was already
				// in — hidden wire time — and the real exposed wait otherwise.
				xt1 = time.Now()
				d.Trace.Peer(b, int64(16*len(blk)), t0, xt1)
			}
			lo, hi := Chunk(p.lineN, C, cc)
			p.unpackBlock(b, lo, hi, blk, 0)
			p.arrived[cc]++
		}
		if consume != nil {
			sp.End()
			lo, hi := Chunk(p.lineN, C, c)
			consume(lo, hi)
			sp = d.Telemetry.Begin(telemetry.PhaseTransposeAB)
		}
	}
	p.stream.Reset()
	if tracing {
		if xt1.IsZero() {
			xt1 = time.Now()
		}
		d.Trace.ExchangePipelined(commOp(p.dir), C, p.commBytes(), xt0, xt1)
	}
	p.src, p.dst = nil, nil
	sp.End()
	d.Telemetry.AddComm(commOp(p.dir), p.commBytes(), int64(C*(np-1)))
	return dst
}

// sendChunk packs chunk c of the remote blocks (pool-parallel over peers)
// into the current parity's wire arena, fires its per-peer stream messages
// as pre-boxed in-place payloads (no copy, no allocation), and moves the
// chunk's lines of the own block straight from src to dst.
func (p *TransposePlan) sendChunk(c int) {
	np := p.np
	me := p.comm.Rank()
	p.curChunk = c
	p.d.Pool.ForBlocks(np-1, p.pipePack)
	for s := 1; s < np; s++ {
		dst := (me + s) % np
		mpi.StreamSendPrepacked(p.comm, dst, p.wireBox[p.parity][c*np+dst])
	}
	p.move(Chunk(p.lineN, p.chunks, c))
}

// packBlock packs peer b's block, restricted to chunk-axis lines [lo, hi),
// at pbuf[pos], field after field; unpackBlock is its inverse, reading from
// an arbitrary buffer so arrivals can be unpacked straight out of the message
// payload. The serial exchange calls them with the full line range at the
// plan's table displacements, the pipelined one per (chunk, peer); a
// restricted block's order is the restriction of the full one, so both sides
// of the wire agree.
func (p *TransposePlan) packBlock(b, lo, hi, pos int) {
	sb := p.send[b].lines(lo, hi)
	for f, src := range p.src {
		copyBlock(p.pbuf, sb.packed(pos+f*sb.len()), src, sb)
	}
}

func (p *TransposePlan) unpackBlock(b, lo, hi int, buf []complex128, pos int) {
	db := p.recv[b].lines(lo, hi)
	for f, dst := range p.dst {
		copyBlock(dst, db, buf, db.packed(pos+f*db.len()))
	}
}

// moveOwn is the move kernel: the own block's lines [lo, hi), src -> dst.
func (p *TransposePlan) moveOwn(lo, hi int) {
	sb, db := p.ownSrc.lines(lo, hi), p.ownDst.lines(lo, hi)
	for f, src := range p.src {
		copyBlock(p.dst[f], db, src, sb)
	}
}
