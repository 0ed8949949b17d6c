package pencil

import "channeldns/internal/schedule"

// CycleSchedule returns the declarative schedule of one full transpose
// cycle (YtoZ, ZtoX, XtoZ, ZtoY on the spectral grid) over nf fields as
// this decomposition executes it — the live analog of the Table 5
// benchmark program. Each transpose is declared as the paper's program for
// the machine model: pack and unpack through the exchange buffers, 4 memory
// passes (pack read+write, unpack read+write) over the whole field. The live
// plans differ for the block a rank keeps, which is one copy, 2 passes (read
// src, write dst) — all of the field at P = 1; the IR keeps the paper's
// count so digests and the paper tables stand.
// With Overlap on the cycle runs the chunked pipelined exchange, so the
// emitted transposes carry the same per-direction pipeline depths the plans
// use.
func (d *Decomp) CycleSchedule(nf int) *schedule.Schedule {
	ca, cb := d.OverlapChunks()
	return schedule.TransposeCycle(schedule.TransposeCycleParams{
		Nx: 2 * d.NKx, NKx: d.NKx, Ny: d.NY, Nz: d.NZ,
		PA: d.PA, PB: d.PB,
		Fields:     nf,
		PackPasses: 4,
		ChunksA:    ca, ChunksB: cb,
	})
}
