package pencil

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/telemetry"
)

// TestTransposePlanZeroAlloc: at P=1 every transpose direction is the plan's
// move kernel alone, src straight to dst, so a warmed plan with a
// preallocated destination must perform zero heap allocations per call. (At
// P>1 the in-process runtime copies each eager-send message, so strict
// zero-alloc only holds single-rank; the plan tables and exchange buffers
// are still reused either way.)
func TestTransposePlanZeroAlloc(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		d := New(c, 1, 1, 6, 8, 10, nil)
		// Attach a live collector: the instrumented path must stay free too.
		d.Telemetry = telemetry.NewCollector(c.Rank())
		const nf = 3
		src := AllocFields(nf, d.YPencilLen())
		for f := range src {
			for i := range src[f] {
				src[f][i] = complex(float64(f*1000+i), 1)
			}
		}
		zp := AllocFields(nf, d.ZPencilLen(d.NZ))
		xp := AllocFields(nf, d.XPencilLen(d.NZ))
		zp2 := AllocFields(nf, d.ZPencilLen(d.NZ))
		out := AllocFields(nf, d.YPencilLen())

		steps := []struct {
			name string
			run  func()
		}{
			{"YtoZ", func() { d.YtoZ(zp, src) }},
			{"ZtoX", func() { d.ZtoX(xp, zp, d.NZ) }},
			{"XtoZ", func() { d.XtoZ(zp2, xp, d.NZ) }},
			{"ZtoY", func() { d.ZtoY(out, zp2) }},
		}
		// Warm the plans (first call builds tables and buffers).
		for _, st := range steps {
			st.run()
		}
		for _, st := range steps {
			if allocs := testing.AllocsPerRun(10, st.run); allocs != 0 {
				t.Errorf("%s: %v allocs per reused transpose, want 0", st.name, allocs)
			}
		}
	})
}

// TestTransposePlanReuseBitwise: reusing one plan (and one destination
// buffer) across iterations must reproduce the identity round trip
// bitwise, for both the CommB pair (YtoZ∘ZtoY) and the CommA pair
// (ZtoX∘XtoZ), across several grid shapes and process splits, with fresh
// random data each iteration.
func TestTransposePlanReuseBitwise(t *testing.T) {
	shapes := []struct{ pa, pb, nkx, nz, ny int }{
		{1, 1, 4, 6, 8},
		{1, 4, 5, 9, 11},
		{4, 1, 5, 9, 11},
		{2, 3, 7, 10, 13},
		{3, 2, 6, 12, 7},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("%dx%d_%dx%dx%d", sh.pa, sh.pb, sh.nkx, sh.nz, sh.ny),
			func(t *testing.T) {
				mpi.Run(sh.pa*sh.pb, func(c *mpi.Comm) {
					d := New(c, sh.pa, sh.pb, sh.nkx, sh.nz, sh.ny, par.NewPool(2))
					const nf = 2
					rng := rand.New(rand.NewSource(int64(41*c.Rank() + 7)))
					src := AllocFields(nf, d.YPencilLen())
					zp := AllocFields(nf, d.ZPencilLen(d.NZ))
					back := AllocFields(nf, d.YPencilLen())
					xp := AllocFields(nf, d.XPencilLen(d.NZ))
					zback := AllocFields(nf, d.ZPencilLen(d.NZ))
					for it := 0; it < 3; it++ {
						for f := 0; f < nf; f++ {
							for i := range src[f] {
								src[f][i] = complex(rng.NormFloat64(), rng.NormFloat64())
							}
						}
						d.YtoZ(zp, src)
						d.ZtoY(back, zp)
						for f := 0; f < nf; f++ {
							for i := range src[f] {
								if back[f][i] != src[f][i] {
									t.Errorf("iter %d rank %d: YtoZ∘ZtoY not identity at f=%d i=%d",
										it, c.Rank(), f, i)
									return
								}
							}
						}
						d.ZtoX(xp, zp, d.NZ)
						d.XtoZ(zback, xp, d.NZ)
						for f := 0; f < nf; f++ {
							for i := range zp[f] {
								if zback[f][i] != zp[f][i] {
									t.Errorf("iter %d rank %d: ZtoX∘XtoZ not identity at f=%d i=%d",
										it, c.Rank(), f, i)
									return
								}
							}
						}
					}
				})
			})
	}
}

// TestDecompTelemetry: the telemetry comm accounting must count one call
// per transpose, a positive and direction-consistent number of bytes, and
// one PhaseTransposeAB timing sample per Run.
func TestDecompTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	mpi.Run(4, func(c *mpi.Comm) {
		d := New(c, 2, 2, 4, 6, 8, nil)
		d.Telemetry = reg.Rank(c.Rank())
		src := AllocFields(1, d.YPencilLen())
		zp := d.YtoZ(nil, src)
		xp := d.ZtoX(nil, zp, d.NZ)
		d.XtoZ(nil, xp, d.NZ)
		d.ZtoY(nil, zp)

		tel := d.Telemetry
		if got := tel.PhaseCalls(telemetry.PhaseTransposeAB); got != 4 {
			t.Errorf("rank %d: %d transpose timing samples, want 4", c.Rank(), got)
		}
		bytesOf := func(op telemetry.CommOp) int64 {
			calls, msgs, bytes := tel.CommCounts(op)
			if calls != 1 {
				t.Errorf("rank %d %s: %d calls, want 1", c.Rank(), op, calls)
			}
			if msgs != 1 { // 2x2 grid: one remote peer per sub-communicator
				t.Errorf("rank %d %s: %d messages, want 1", c.Rank(), op, msgs)
			}
			if bytes <= 0 {
				t.Errorf("rank %d %s: %d bytes moved, want > 0", c.Rank(), op, bytes)
			}
			return bytes
		}
		if bytesOf(telemetry.CommYtoZ) != bytesOf(telemetry.CommZtoY) {
			t.Errorf("rank %d: CommB pair asymmetric", c.Rank())
		}
		if bytesOf(telemetry.CommZtoX) != bytesOf(telemetry.CommXtoZ) {
			t.Errorf("rank %d: CommA pair asymmetric", c.Rank())
		}
	})
	snap := reg.Snapshot()
	if snap.Ranks != 4 {
		t.Fatalf("snapshot ranks = %d, want 4", snap.Ranks)
	}
	if len(snap.Comm) != 4 {
		t.Errorf("snapshot comm ops = %d, want 4", len(snap.Comm))
	}
}

// TestExchangeFailurePanicsTyped: ranks that disagree on the layout fail the
// exchange, and the panic carries the *mpi.CountMismatchError — wrapped by
// Run, bare from RunPipelined — so a caller that recovers can errors.As it.
func TestExchangeFailurePanicsTyped(t *testing.T) {
	for _, tc := range []struct {
		overlap bool
		op      string
	}{{false, "Alltoallv"}, {true, "pencil.RunPipelined"}} {
		t.Run(fmt.Sprintf("overlap=%v", tc.overlap), func(t *testing.T) {
			mpi.Run(2, func(c *mpi.Comm) {
				d := New(c, 1, 2, 4, 6, 8+2*c.Rank(), nil) // the ranks disagree on NY
				d.Overlap = tc.overlap
				defer func() {
					r := recover()
					var cm *mpi.CountMismatchError
					if err, _ := r.(error); !errors.As(err, &cm) || cm.Op != tc.op {
						t.Errorf("rank %d: panic %#v, want a *mpi.CountMismatchError from %s", c.Rank(), r, tc.op)
					}
				}()
				d.YtoZPipelined(nil, AllocFields(1, d.YPencilLen()), nil)
			})
		})
	}
}

// TestPlanBuffersHoldRemoteBlocksOnly: a plan's send, receive and wire
// buffers carry the blocks bound for other ranks and nothing else — empty at
// 1x1; exactly the remote half over a two-rank communicator (CommB at 1x2,
// CommA at 2x1, both at 2x2) and nothing over a one-rank one — while the
// per-direction counters still report what they did when the own block rode
// through the buffers: 16·nf·(srcLen + dstLen) bytes a call and one message
// per remote peer (per chunk when pipelined).
func TestPlanBuffersHoldRemoteBlocksOnly(t *testing.T) {
	const nf, nkx, nz, ny = 2, 6, 8, 10 // even extents: the remote block is half
	for _, g := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		pa, pb := g[0], g[1]
		t.Run(fmt.Sprintf("%dx%d", pa, pb), func(t *testing.T) {
			mpi.Run(pa*pb, func(c *mpi.Comm) {
				d := New(c, pa, pb, nkx, nz, ny, nil)
				d.Overlap = true
				d.Telemetry = telemetry.NewCollector(c.Rank())
				yl, zl, xl := d.YPencilLen(), d.ZPencilLen(nz), d.XPencilLen(nz)
				for _, tc := range []struct {
					dir            TransposeDir
					op             telemetry.CommOp
					srcLen, dstLen int
					np             int
				}{
					{DirYtoZ, telemetry.CommYtoZ, yl, zl, pb},
					{DirZtoY, telemetry.CommZtoY, zl, yl, pb},
					{DirZtoX, telemetry.CommZtoX, zl, xl, pa},
					{DirXtoZ, telemetry.CommXtoZ, xl, zl, pa},
				} {
					p := d.Plan(tc.dir, nz, nf)
					src := AllocFields(nf, tc.srcLen)
					p.Run(nil, src)
					p.RunPipelined(nil, src, nil)
					wantS, wantR := (tc.np-1)*nf*tc.srcLen/tc.np, (tc.np-1)*nf*tc.dstLen/tc.np
					if len(p.sbuf) != wantS || len(p.rbuf) != wantR {
						t.Errorf("rank %d %v: sbuf %d rbuf %d, want %d %d", c.Rank(), tc.dir, len(p.sbuf), len(p.rbuf), wantS, wantR)
					}
					if tc.np > 1 && (len(p.wire[0]) != wantS || len(p.wire[1]) != wantS) || tc.np == 1 && p.wire[0] != nil {
						t.Errorf("rank %d %v: wire arenas %d %d, want %d", c.Rank(), tc.dir, len(p.wire[0]), len(p.wire[1]), wantS)
					}
					calls, msgs, bytes := d.Telemetry.CommCounts(tc.op)
					wantMsgs := int64(tc.np-1) * int64(1+p.Chunks())
					if wantBytes := int64(2 * 16 * nf * (tc.srcLen + tc.dstLen)); calls != 2 || msgs != wantMsgs || bytes != wantBytes {
						t.Errorf("rank %d %v: %d calls, %d messages, %d bytes; want 2, %d, %d",
							c.Rank(), tc.dir, calls, msgs, bytes, wantMsgs, wantBytes)
					}
				}
			})
		})
	}
}

// BenchmarkExcursionTransposes times the four transposes of one substep's
// dealiased excursion at the channel-48 shapes: 3 fields out at NZ, 3 and 6
// at the padded zLen = 72, 6 back. At 1x1 all of it is the own block; at
// 1x2 half of CommB crosses the in-process exchange, at 2x1 half of CommA,
// at 2x2 half of both.
func BenchmarkExcursionTransposes(b *testing.B) {
	const nkx, nz, ny, mz = 24, 48, 49, 72
	for _, bc := range []struct{ pa, pb, workers int }{{1, 1, 1}, {1, 1, 2}, {1, 2, 1}, {2, 1, 1}, {2, 2, 1}} {
		b.Run(fmt.Sprintf("%dx%d_w%d", bc.pa, bc.pb, bc.workers), func(b *testing.B) {
			mpi.Run(bc.pa*bc.pb, func(c *mpi.Comm) {
				pool := par.NewPool(bc.workers)
				defer pool.Close()
				d := New(c, bc.pa, bc.pb, nkx, nz, ny, pool)
				yin, zin := AllocFields(3, d.YPencilLen()), AllocFields(3, d.ZPencilLen(nz))
				zpad, xin := AllocFields(3, d.ZPencilLen(mz)), AllocFields(3, d.XPencilLen(mz))
				xout, zout := AllocFields(6, d.XPencilLen(mz)), AllocFields(6, d.ZPencilLen(mz))
				zspec, yout := AllocFields(6, d.ZPencilLen(nz)), AllocFields(6, d.YPencilLen())
				substep := func() {
					d.YtoZ(zin, yin)
					d.ZtoX(xin, zpad, mz)
					d.XtoZ(zout, xout, mz)
					d.ZtoY(yout, zspec)
				}
				substep()
				c.Barrier()
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					substep()
				}
			})
		})
	}
}
