package parfft

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"channeldns/internal/fft"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/pencil"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// gradSpec is a Grad > 0 pass that reads every kernel argument: each product
// mixes a field with an x derivative and another field with a z derivative.
var gradSpec = Spec{In: 3, Grad: 2, Out: 4,
	Kernel: func(out []float64, c int, phys, dz, dx [][]float64) {
		a, b, ax, bz := phys[c%3], phys[(c+1)%3], dx[c%2], dz[(c+1)%2]
		for i := range out {
			out[i] = a[i]*ax[i] + b[i]*bz[i]
		}
	}}

// excursionShape is one global grid: nx physical x points (nx/2 one-sided
// modes on a 3nx/2 grid), ny wall-normal points, nz z modes (3nz/2 grid).
type excursionShape struct{ nx, ny, nz int }

// newTestExcursion builds an excursion on d for sh with i*k multiplier
// lines, sized for specs, booking its phases to d's collector.
func newTestExcursion(d *pencil.Decomp, sh excursionShape, specs ...*Spec) *Excursion {
	ikz := make([]complex128, sh.nz)
	for j := range ikz {
		k := j
		if j >= sh.nz/2 {
			k = j - sh.nz
		}
		if sh.nz%2 == 0 && j == sh.nz/2 {
			k = 0
		}
		ikz[j] = complex(0, float64(k))
	}
	ikx := make([]complex128, sh.nx/2)
	for k := range ikx {
		ikx[k] = complex(0, float64(k))
	}
	return NewExcursion(d, fft.NewPaddedComplex(sh.nz, 3*sh.nz/2), fft.NewPaddedReal(sh.nx/2, 3*sh.nx/2),
		ikz, ikx, d.Telemetry, specs...)
}

// excursionDigests runs SixProducts, gradSpec and SixProducts again through
// one Excursion on a pa x pb grid of sh, each rank on a pool of the given
// workers, all fed the same global y-pencil input, and returns per pass an
// FNV-1a digest of the bits of the gathered global output followed by the
// world's per-y MaxAbs. Every transform sees a whole line whatever the grid
// and the pool, so the digests do not depend on pa, pb or workers.
func excursionDigests(sh excursionShape, pa, pb, workers int) [3]uint64 {
	nkx := sh.nx / 2
	glen := nkx * sh.nz * sh.ny
	rng := rand.New(rand.NewSource(1))
	in := make([][]complex128, 3)
	for f := range in {
		in[f] = make([]complex128, glen)
		for i := range in[f] {
			in[f][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	passes := []*Spec{&SixProducts, &gradSpec, &SixProducts}
	out := make([][][]complex128, len(passes))
	maxAbs := make([][3][]float64, len(passes))
	for p, sp := range passes {
		out[p] = pencil.AllocFields(sp.Out, glen)
		for c := range maxAbs[p] {
			maxAbs[p][c] = make([]float64, sh.ny)
		}
	}
	rankMax := make([][][3][]float64, pa*pb)
	mpi.Run(pa*pb, func(c *mpi.Comm) {
		pool := par.NewPool(workers)
		defer pool.Close()
		d := pencil.New(c, pa, pb, nkx, sh.nz, sh.ny, pool)
		e := newTestExcursion(d, sh, &SixProducts, &gradSpec)
		kl, kh := d.KxRange()
		zl, zh := d.KzRangeY()
		// each visits the local y-pencil elements with their global index.
		each := func(fn func(loc, glob int)) {
			loc := 0
			for kx := kl; kx < kh; kx++ {
				for kz := zl; kz < zh; kz++ {
					for y := 0; y < sh.ny; y++ {
						fn(loc, (kx*sh.nz+kz)*sh.ny+y)
						loc++
					}
				}
			}
		}
		rankMax[c.Rank()] = make([][3][]float64, len(passes))
		for p, sp := range passes {
			for f, dst := range e.In(sp.In) {
				each(func(loc, glob int) { dst[loc] = in[f][glob] })
			}
			res := e.Run(sp, true)
			for f, src := range res {
				each(func(loc, glob int) { out[p][f][glob] = src[loc] })
			}
			for k, m := range e.MaxAbs() {
				rankMax[c.Rank()][p][k] = append([]float64(nil), m...)
			}
		}
	})
	var digests [3]uint64
	for p := range passes {
		for _, rm := range rankMax {
			for k, m := range rm[p] {
				for y, v := range m {
					maxAbs[p][k][y] = math.Max(maxAbs[p][k][y], v)
				}
			}
		}
		h := fnv.New64a()
		var b [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		for _, f := range out[p] {
			for _, v := range f {
				put(real(v))
				put(imag(v))
			}
		}
		for _, m := range maxAbs[p] {
			for _, v := range m {
				put(v)
			}
		}
		digests[p] = h.Sum64()
	}
	return digests
}

// TestExcursionPinned pins Run's outputs and MaxAbs, bit for bit, for the
// divergence-form pass and a Grad > 0 pass on five process grids — serial,
// either communicator alone, both, and an uneven three-way CommA — and four
// shapes: 24-point lines (the load-table inverse and the truncating last
// radix-3 stage, even real x), 9-point lines (no load table, odd real x),
// 15-point lines (no load table and an outermost radix 5, so the forward
// truncates in scratch) and 21-point lines (a Bluestein z plan and odd real
// x; 105 x lines and 35 z lines a field, so no grid splits them into equal
// blocks), each rank on two workers. The first three were recorded before
// any transpose was folded into the transforms, the fourth before the
// transforms were batched. A fifth shape has 49 y planes, so on one to three
// CommB ranks and pools of one to three workers a worker's y range spans
// several y-slabs of the one-rank-CommA schedule with a remainder, or one
// short slab; it was recorded before that schedule. A digest has no
// tolerance, so it is checked only on amd64, where the compiler fuses no
// multiply-add.
func TestExcursionPinned(t *testing.T) {
	type pin struct {
		sh        excursionShape
		six, grad uint64
	}
	rows := []struct {
		pins    []pin
		grids   [][2]int
		workers []int
	}{{
		pins: []pin{
			{excursionShape{16, 9, 16}, 0x4195f95e80e21061, 0xa9a631f3d11302e},
			{excursionShape{6, 7, 6}, 0x31b89d24835c3c33, 0x4743ada220a0a8b},
			{excursionShape{10, 5, 10}, 0xd1b521f562f1045d, 0x16f183ab7699ef5b},
			{excursionShape{14, 5, 14}, 0xeeb013db7477c0df, 0x84de52b9e4591727},
		},
		grids:   [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}},
		workers: []int{2},
	}, {
		pins:    []pin{{excursionShape{16, 49, 16}, 0x8daa46bb3c4159d, 0xd76efdedd2e40181}},
		grids:   [][2]int{{1, 1}, {1, 2}, {1, 3}},
		workers: []int{1, 2, 3},
	}}
	for _, row := range rows {
		for _, pin := range row.pins {
			for _, g := range row.grids {
				for _, workers := range row.workers {
					sh, pa, pb := pin.sh, g[0], g[1]
					name := fmt.Sprintf("%dx%dx%d/%dx%d", sh.nx, sh.ny, sh.nz, pa, pb)
					if len(row.workers) > 1 {
						name += fmt.Sprintf("/w%d", workers)
					}
					t.Run(name, func(t *testing.T) {
						got := excursionDigests(sh, pa, pb, workers)
						if got[2] != got[0] {
							t.Errorf("SixProducts after the Grad pass %#x, first %#x", got[2], got[0])
						}
						if runtime.GOARCH != "amd64" {
							return
						}
						if got[0] != pin.six {
							t.Errorf("SixProducts digest %#x, pinned %#x", got[0], pin.six)
						}
						if got[1] != pin.grad {
							t.Errorf("Grad pass digest %#x, pinned %#x", got[1], pin.grad)
						}
					})
				}
			}
		}
	}
}

// heldBytes is the bytes of the excursion's field pools and its workers'
// slab buffers.
func heldBytes(e *Excursion) int {
	pools := [][][]complex128{e.y, e.zs, e.zp, e.xp}
	for i := range e.workers {
		pools = append(pools, e.workers[i].slab)
	}
	n := 0
	for _, pool := range pools {
		for _, f := range pool {
			n += 16 * len(f)
		}
	}
	return n
}

// BenchmarkExcursionPass times one SixProducts pass at the channel-48 shapes
// (24 one-sided x modes and 48 z modes, both on 72-point grids, 49 y points):
// at 1x1 on one and two workers, and at 1x2 over mpi.Run. A pass leaves its
// products in its inputs, so each is refilled from a saved image with the
// timer stopped; MB-held is rank 0's field pools and slab buffers.
func BenchmarkExcursionPass(b *testing.B) {
	sh := excursionShape{48, 49, 48}
	for _, bc := range []struct{ pb, workers int }{{1, 1}, {1, 2}, {2, 1}} {
		b.Run(fmt.Sprintf("1x%d_w%d", bc.pb, bc.workers), func(b *testing.B) {
			mpi.Run(bc.pb, func(c *mpi.Comm) {
				pool := par.NewPool(bc.workers)
				defer pool.Close()
				d := pencil.New(c, 1, bc.pb, sh.nx/2, sh.nz, sh.ny, pool)
				e := newTestExcursion(d, sh, &SixProducts)
				rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
				image := pencil.AllocFields(SixProducts.In, d.YPencilLen())
				for _, f := range image {
					for i := range f {
						f[i] = complex(rng.NormFloat64(), rng.NormFloat64())
					}
				}
				refill := func() {
					for f, dst := range e.In(SixProducts.In) {
						copy(dst, image[f])
					}
				}
				refill()
				e.Run(&SixProducts, true)
				c.Barrier()
				if c.Rank() == 0 {
					b.ResetTimer() // which drops reported metrics
					b.ReportMetric(float64(heldBytes(e))/1e6, "MB-held")
				}
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						b.StopTimer()
					}
					refill()
					if c.Rank() == 0 {
						b.StartTimer()
					}
					e.Run(&SixProducts, true)
				}
			})
		})
	}
}

// TestExcursionOneRankBuffers: a communicator of one rank costs the
// excursion no transpose buffers — the zs pool is empty when PB == 1, the xp
// pool when PA == 1, and then so is the padded z-pencil pool zp, the slab
// schedule's worker slabs taking its place — while every transpose is still
// booked as the
// parent recorded it: per direction one call, 16·nf·(srcLen + dstLen) bytes
// and one message per remote peer, one PhaseTransposeAB span and one
// Exchange trace event.
func TestExcursionOneRankBuffers(t *testing.T) {
	sh := excursionShape{12, 9, 10}
	nz, mz := sh.nz, 3*sh.nz/2
	for _, g := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		pa, pb := g[0], g[1]
		t.Run(fmt.Sprintf("%dx%d", pa, pb), func(t *testing.T) {
			tr := trace.New(0)
			mpi.Run(pa*pb, func(c *mpi.Comm) {
				d := pencil.New(c, pa, pb, sh.nx/2, sh.nz, sh.ny, nil)
				d.Telemetry = telemetry.NewCollector(c.Rank())
				d.Trace = tr.Rank(c.Rank())
				e := newTestExcursion(d, sh, &SixProducts)
				for _, b := range []struct {
					name  string
					bufs  [][]complex128
					empty bool
				}{
					{"zs", e.zs, pb == 1}, {"xp", e.xp, pa == 1},
					{"y", e.y, false}, {"zp", e.zp, pa == 1},
					{"slab", e.workers[0].slab, pa > 1},
				} {
					if (len(b.bufs) == 0) != b.empty {
						t.Errorf("rank %d: %s holds %d fields, want empty = %v", c.Rank(), b.name, len(b.bufs), b.empty)
					}
				}
				e.Run(&SixProducts, true)
				yl, zs, zp, xl := d.YPencilLen(), d.ZPencilLen(nz), d.ZPencilLen(mz), d.XPencilLen(mz)
				for _, dc := range []struct {
					op                 telemetry.CommOp
					nf, srcLen, dstLen int
					np                 int
				}{
					{telemetry.CommYtoZ, 3, yl, zs, pb},
					{telemetry.CommZtoX, 3, zp, xl, pa},
					{telemetry.CommXtoZ, 6, xl, zp, pa},
					{telemetry.CommZtoY, 6, zs, yl, pb},
				} {
					calls, msgs, bytes := d.Telemetry.CommCounts(dc.op)
					if wantBytes := int64(16 * dc.nf * (dc.srcLen + dc.dstLen)); calls != 1 || msgs != int64(dc.np-1) || bytes != wantBytes {
						t.Errorf("rank %d %v: %d calls, %d messages, %d bytes; want 1, %d, %d",
							c.Rank(), dc.op, calls, msgs, bytes, dc.np-1, wantBytes)
					}
				}
				if n := d.Telemetry.PhaseCalls(telemetry.PhaseTransposeAB); n != 4 {
					t.Errorf("rank %d: %d transpose spans, want 4", c.Rank(), n)
				}
				exchanges := 0
				for _, ev := range d.Trace.Events() {
					if ev.Kind == trace.KindExchange {
						exchanges++
					}
				}
				if exchanges != 4 {
					t.Errorf("rank %d: %d Exchange events, want 4", c.Rank(), exchanges)
				}
			})
		})
	}
}

// TestExcursionSharesBuffers: with SixProducts and gradSpec registered, each
// pencil shape's pool holds as many distinct arrays as the widest pass needs
// at that shape — max(In, Out) = 6 y and spectral z pencils, max(In+Grad,
// Out) = 6 padded z and x pencils, or with PA == 1 as many slabs of
// min(slabPlanes, nyLoc) padded planes on each worker instead — not one set
// for inputs and another for outputs; product f comes back in input f's
// array, and the bytes held are those counts times the pencil and slab
// lengths.
func TestExcursionSharesBuffers(t *testing.T) {
	sh := excursionShape{12, 9, 10}
	nz, mz := sh.nz, 3*sh.nz/2
	for _, g := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		pa, pb := g[0], g[1]
		t.Run(fmt.Sprintf("%dx%d", pa, pb), func(t *testing.T) {
			mpi.Run(pa*pb, func(c *mpi.Comm) {
				pool := par.NewPool(2)
				defer pool.Close()
				d := pencil.New(c, pa, pb, sh.nx/2, sh.nz, sh.ny, pool)
				e := newTestExcursion(d, sh, &SixProducts, &gradSpec)
				// max(In, Out) and max(In+Grad, Out) over SixProducts (3 -> 6)
				// and gradSpec (3 + 2 -> 4).
				const spec, phys = 6, 6
				zs, xp := spec, phys // the transpose targets, none on one rank
				zp, slab := phys, 0  // the padded z-pencils, or with PA == 1 the slabs
				if pb == 1 {
					zs = 0
				}
				if pa == 1 {
					xp, zp, slab = 0, 0, phys
				}
				kl, kh := d.KxRange()
				yl, yh := d.YRange()
				slabLen := (kh - kl) * min(slabPlanes, yh-yl) * mz
				want := 0
				for _, s := range []struct {
					name     string
					pool     [][]complex128
					nf, flen int
				}{
					{"y", e.y, spec, d.YPencilLen()},
					{"zs", e.zs, zs, d.ZPencilLen(nz)},
					{"zp", e.zp, zp, d.ZPencilLen(mz)},
					{"xp", e.xp, xp, d.XPencilLen(mz)},
					{"slab 0", e.workers[0].slab, slab, slabLen},
					{"slab 1", e.workers[1].slab, slab, slabLen},
				} {
					arrays := map[*complex128]bool{}
					for _, f := range s.pool {
						if len(f) != s.flen {
							t.Errorf("rank %d: a %s field of %d elements, want %d", c.Rank(), s.name, len(f), s.flen)
						}
						arrays[&f[0]] = true
					}
					if len(s.pool) != s.nf || len(arrays) != s.nf {
						t.Errorf("rank %d: %s holds %d fields in %d arrays, want %d", c.Rank(), s.name, len(s.pool), len(arrays), s.nf)
					}
					want += 16 * s.nf * s.flen
				}
				if got := heldBytes(e); got != want {
					t.Errorf("rank %d: %d bytes held, want %d", c.Rank(), got, want)
				}
				for _, sp := range []*Spec{&SixProducts, &gradSpec} {
					in := e.In(sp.In)
					for _, f := range in {
						for i := range f {
							f[i] = complex(float64(i%7), 1)
						}
					}
					for f, out := range e.Run(sp, true)[:min(sp.In, sp.Out)] {
						if &out[0] != &in[f][0] {
							t.Errorf("rank %d: product %d of the %d-in pass is not in input %d's array", c.Rank(), f, sp.In, f)
						}
					}
				}
			})
		})
	}
}

// TestHarvestCarriesNaN: a NaN in one y-pencil input mode of u spreads, by
// the z and x inverse transforms, over the whole physical plane of its y, so
// MaxAbs must read NaN for u at that y — the value a NaN watchdog on the CFL
// diagnostic reads — and stay finite everywhere else.
func TestHarvestCarriesNaN(t *testing.T) {
	sh := excursionShape{12, 9, 10}
	const nanKx, nanKz, nanY = 1, 2, 3
	for _, g := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		pa, pb := g[0], g[1]
		t.Run(fmt.Sprintf("%dx%d", pa, pb), func(t *testing.T) {
			mpi.Run(pa*pb, func(c *mpi.Comm) {
				pool := par.NewPool(2)
				defer pool.Close()
				d := pencil.New(c, pa, pb, sh.nx/2, sh.nz, sh.ny, pool)
				e := newTestExcursion(d, sh, &SixProducts)
				kl, kh := d.KxRange()
				zl, zh := d.KzRangeY()
				rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
				for f, in := range e.In(SixProducts.In) {
					loc := 0
					for kx := kl; kx < kh; kx++ {
						for kz := zl; kz < zh; kz++ {
							for y := 0; y < sh.ny; y++ {
								in[loc] = complex(rng.NormFloat64(), rng.NormFloat64())
								if f == 0 && kx == nanKx && kz == nanKz && y == nanY {
									in[loc] = complex(math.NaN(), 0)
								}
								loc++
							}
						}
					}
				}
				e.Run(&SixProducts, true)
				yl, yh := d.YRange()
				for comp, m := range e.MaxAbs() {
					for y, v := range m {
						want := comp == 0 && y == nanY && y >= yl && y < yh
						if math.IsNaN(v) != want {
							t.Errorf("rank %d: MaxAbs[%d][%d] = %v, want NaN %v", c.Rank(), comp, y, v, want)
						}
					}
				}
			})
		})
	}
}

// TestExcursionSlabSpans: with PA == 1 the padded part of a pass runs one
// y-slab at a time inside the pool, and only block 0 books its phases. On a
// pool of one to three workers each of fft_inverse, nonlinear and
// fft_forward is booked once per slab of block 0's y range, and in the trace
// those spans follow one another slab by slab — inverse, nonlinear, forward
// — none starting before the last one ended: they are block 0's real times,
// so they tile its share of the pass once. And they tile the whole pool
// loop, not only block 0's work: the first starts before any block is
// entered (it is opened before the dispatch) and the last ends after every
// block has returned (it is closed after the join), whichever block
// finishes last.
func TestExcursionSlabSpans(t *testing.T) {
	sh := excursionShape{16, 49, 16}
	phases := []telemetry.Phase{telemetry.PhaseFFTInverse, telemetry.PhaseNonlinear, telemetry.PhaseFFTForward}
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			tr := trace.New(0)
			mpi.Run(1, func(c *mpi.Comm) {
				pool := par.NewPool(workers)
				defer pool.Close()
				d := pencil.New(c, 1, 1, sh.nx/2, sh.nz, sh.ny, pool)
				d.Telemetry = telemetry.NewCollector(0)
				d.Trace = tr.Rank(0)
				d.Telemetry.SetTracer(d.Trace)
				e := newTestExcursion(d, sh, &SixProducts)
				enter := make([]time.Duration, workers)
				leave := make([]time.Duration, workers)
				slab := e.slabBlk
				e.slabBlk = func(blk, lo, hi int) {
					enter[blk] = time.Since(tr.Epoch())
					slab(blk, lo, hi)
					leave[blk] = time.Since(tr.Epoch())
				}
				e.Run(&SixProducts, true)
				plane0 := sh.ny / min(workers, sh.ny) // block 0's y planes
				slabs := (plane0 + slabPlanes - 1) / slabPlanes
				for _, p := range phases {
					if n := d.Telemetry.PhaseCalls(p); n != int64(slabs) {
						t.Errorf("%v booked %d times, want %d (the slabs of block 0)", p, n, slabs)
					}
				}
				var spans []trace.Event
				for _, ev := range d.Trace.Events() {
					if ev.Kind == trace.KindPhase && ev.Phase != telemetry.PhaseTransposeAB {
						spans = append(spans, ev)
					}
				}
				if len(spans) != 3*slabs {
					t.Fatalf("%d fft and nonlinear spans in the trace, want %d", len(spans), 3*slabs)
				}
				for i, ev := range spans {
					if ev.Phase != phases[i%3] {
						t.Errorf("span %d is %v, want %v", i, ev.Phase, phases[i%3])
					}
					if i > 0 && ev.Start < spans[i-1].Start+spans[i-1].Dur {
						t.Errorf("span %d starts at %v, before span %d ended at %v", i, ev.Start, i-1, spans[i-1].Start+spans[i-1].Dur)
					}
				}
				first, last := spans[0], spans[len(spans)-1]
				for blk := range enter {
					if first.Start > enter[blk] {
						t.Errorf("first span starts at %v, after block %d was entered at %v: the dispatch is unbooked", first.Start, blk, enter[blk])
					}
					if end := last.Start + last.Dur; end < leave[blk] {
						t.Errorf("last span ends at %v, before block %d returned at %v: the join is unbooked", end, blk, leave[blk])
					}
				}
			})
		})
	}
}
