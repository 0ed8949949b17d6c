package pencil

import (
	"fmt"
	"math/rand"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/telemetry"
)

// TestRunPipelinedBitwise: the chunked pipelined transpose must place
// exactly the bytes the serial exchange places — bit-identical destinations
// (exact ==) for every direction, across process splits covering
// P ∈ {1, 2, 4, 8} including uneven decompositions, several pipeline
// depths, and reused plans. The consume callback must see ascending,
// disjoint line ranges tiling the full chunk axis.
func TestRunPipelinedBitwise(t *testing.T) {
	shapes := []struct{ pa, pb, nkx, nz, ny int }{
		{1, 1, 4, 6, 8},
		{2, 1, 5, 9, 11},
		{1, 2, 5, 9, 11},
		{2, 2, 7, 10, 13},
		{4, 2, 9, 12, 10},
		{2, 4, 6, 11, 9},
		{1, 8, 5, 17, 13},
		{8, 1, 17, 9, 7},
	}
	chunkCounts := []int{0, 1, 3, 64} // 0 = default, 64 clamps to the axis
	for _, sh := range shapes {
		for _, cc := range chunkCounts {
			sh, cc := sh, cc
			t.Run(fmt.Sprintf("%dx%d_%dx%dx%d_c%d", sh.pa, sh.pb, sh.nkx, sh.nz, sh.ny, cc),
				func(t *testing.T) {
					mpi.Run(sh.pa*sh.pb, func(c *mpi.Comm) {
						pool := par.NewPool(2)
						ds := New(c, sh.pa, sh.pb, sh.nkx, sh.nz, sh.ny, pool)
						dp := New(c, sh.pa, sh.pb, sh.nkx, sh.nz, sh.ny, pool)
						dp.Overlap = true
						dp.PipelineChunks = cc
						const nf = 2
						rng := rand.New(rand.NewSource(int64(101*c.Rank() + 3)))
						src := AllocFields(nf, ds.YPencilLen())
						zpS := AllocFields(nf, ds.ZPencilLen(ds.NZ))
						zpP := AllocFields(nf, ds.ZPencilLen(ds.NZ))
						xpS := AllocFields(nf, ds.XPencilLen(ds.NZ))
						xpP := AllocFields(nf, ds.XPencilLen(ds.NZ))
						zbS := AllocFields(nf, ds.ZPencilLen(ds.NZ))
						zbP := AllocFields(nf, ds.ZPencilLen(ds.NZ))
						ybS := AllocFields(nf, ds.YPencilLen())
						ybP := AllocFields(nf, ds.YPencilLen())

						compare := func(it int, dir string, want, got [][]complex128) {
							t.Helper()
							for f := range want {
								for i := range want[f] {
									if got[f][i] != want[f][i] {
										t.Fatalf("iter %d rank %d %s: pipelined differs at f=%d i=%d: %v != %v",
											it, c.Rank(), dir, f, i, got[f][i], want[f][i])
									}
								}
							}
						}
						var ranges [][2]int
						record := func(lo, hi int) { ranges = append(ranges, [2]int{lo, hi}) }
						checkRanges := func(dir string, lineN int) {
							t.Helper()
							pos := 0
							for _, r := range ranges {
								if r[0] != pos || r[1] <= r[0] {
									t.Fatalf("rank %d %s: consume ranges %v not ascending disjoint", c.Rank(), dir, ranges)
								}
								pos = r[1]
							}
							if pos != lineN {
								t.Fatalf("rank %d %s: consume ranges %v do not cover [0,%d)", c.Rank(), dir, ranges, lineN)
							}
							ranges = ranges[:0]
						}
						kl, kh := ds.KxRange()
						yl, yh := ds.YRange()

						for it := 0; it < 3; it++ {
							for f := 0; f < nf; f++ {
								for i := range src[f] {
									src[f][i] = complex(rng.NormFloat64(), rng.NormFloat64())
								}
							}
							ds.YtoZ(zpS, src)
							dp.YtoZPipelined(zpP, src, record)
							checkRanges("YtoZ", kh-kl)
							compare(it, "YtoZ", zpS, zpP)

							ds.ZtoX(xpS, zpS, ds.NZ)
							dp.Plan(DirZtoX, ds.NZ, nf).RunPipelined(xpP, zpP, record)
							checkRanges("ZtoX", yh-yl)
							compare(it, "ZtoX", xpS, xpP)

							ds.XtoZ(zbS, xpS, ds.NZ)
							dp.Plan(DirXtoZ, ds.NZ, nf).RunPipelined(zbP, xpP, record)
							checkRanges("XtoZ", yh-yl)
							compare(it, "XtoZ", zbS, zbP)

							ds.ZtoY(ybS, zbS)
							dp.Plan(DirZtoY, ds.NZ, nf).RunPipelined(ybP, zbP, record)
							checkRanges("ZtoY", kh-kl)
							compare(it, "ZtoY", ybS, ybP)
							compare(it, "roundtrip", src, ybP)
						}
					})
				})
		}
	}
}

// TestRunPipelinedNilConsume: a nil consume hook is the pure chunked
// transpose — still bit-identical to the serial exchange.
func TestRunPipelinedNilConsume(t *testing.T) {
	mpi.Run(4, func(c *mpi.Comm) {
		ds := New(c, 2, 2, 5, 9, 11, nil)
		dp := New(c, 2, 2, 5, 9, 11, nil)
		dp.Overlap = true
		src := AllocFields(1, ds.YPencilLen())
		rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
		for i := range src[0] {
			src[0][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		zpS := ds.YtoZ(nil, src)
		zpP := dp.YtoZPipelined(nil, src, nil)
		for i := range zpS[0] {
			if zpS[0][i] != zpP[0][i] {
				t.Fatalf("rank %d: nil-consume pipelined differs at %d", c.Rank(), i)
			}
		}
	})
}

// TestRunPipelinedSerialFallbackZeroAlloc: at P=1 RunPipelined degrades to
// the serial exchange plus one consume call; warmed, it must stay
// allocation-free so the single-rank step budget is untouched by the
// pipelined entry points.
func TestRunPipelinedSerialFallbackZeroAlloc(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		d := New(c, 1, 1, 6, 8, 10, nil)
		d.Overlap = true // np==1: still the serial fallback
		d.Telemetry = telemetry.NewCollector(c.Rank())
		src := AllocFields(2, d.YPencilLen())
		zp := AllocFields(2, d.ZPencilLen(d.NZ))
		consumed := 0
		consume := func(lo, hi int) { consumed += hi - lo }
		run := func() { d.YtoZPipelined(zp, src, consume) }
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("serial-fallback pipelined transpose: %v allocs per run, want 0", allocs)
		}
		if consumed == 0 {
			t.Errorf("consume hook never ran")
		}
	})
}

// TestPipelinedTelemetryMessages: with overlap on, the per-direction
// message counters must count every chunked per-peer message —
// Chunks*(P-1) per call — so the schedule consistency checks can key on
// the chunked shape.
func TestPipelinedTelemetryMessages(t *testing.T) {
	mpi.Run(4, func(c *mpi.Comm) {
		d := New(c, 1, 4, 6, 8, 12, nil)
		d.Overlap = true
		d.PipelineChunks = 3
		d.Telemetry = telemetry.NewCollector(c.Rank())
		src := AllocFields(1, d.YPencilLen())
		d.YtoZPipelined(nil, src, nil)
		calls, msgs, bytes := d.Telemetry.CommCounts(telemetry.CommYtoZ)
		if calls != 1 {
			t.Errorf("rank %d: %d calls, want 1", c.Rank(), calls)
		}
		if want := int64(3 * 3); msgs != want {
			t.Errorf("rank %d: %d messages, want %d", c.Rank(), msgs, want)
		}
		if bytes <= 0 {
			t.Errorf("rank %d: %d bytes", c.Rank(), bytes)
		}
	})
}
