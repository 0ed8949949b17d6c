package pencil

import (
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/schedule"
)

// tcpFrameHeaderLen mirrors the TCP transport's fixed per-frame overhead
// (u32 length prefix + src + commID + tag + kind). The conformance check
// below asserts bytesOut == payloadOut + frames*header, so a header-size
// change shows up here rather than silently shifting the wire accounting.
const tcpFrameHeaderLen = 21

// wireDelta subtracts two wire snapshots peer by peer.
func wireDelta(before, after mpi.WireStats) mpi.WireStats {
	d := mpi.WireStats{Self: after.Self, World: after.World,
		DialRetries: after.DialRetries - before.DialRetries,
		Peers:       make([]mpi.WirePeerStats, len(after.Peers))}
	for r := range after.Peers {
		a, b := after.Peers[r], before.Peers[r]
		d.Peers[r] = mpi.WirePeerStats{
			FramesOut: a.FramesOut - b.FramesOut, BytesOut: a.BytesOut - b.BytesOut,
			PayloadOut: a.PayloadOut - b.PayloadOut,
			FramesIn:   a.FramesIn - b.FramesIn, BytesIn: a.BytesIn - b.BytesIn,
			PayloadIn: a.PayloadIn - b.PayloadIn,
		}
	}
	return d
}

// TestWireCountersMatchSchedule runs transpose cycles over the real TCP
// transport and asserts the per-peer wire counters equal the schedule
// IR's predictions exactly: each transpose puts BytesPerRank/CommSize
// payload bytes on the wire per remote peer in Messages/(CommSize-1)
// frames (the self block is a local copy, never a frame), and every
// frame carries exactly the fixed header on top of its payload. The
// cross-check is the observability plane's ground truth: report wire
// blocks and schedule predictions must agree to the byte. The cycle runs in
// two shapes: the same fields out and back, and the scalar step's excursion,
// 4 fields out (u, v, w, theta) and 9 back (six products, three fluxes).
func TestWireCountersMatchSchedule(t *testing.T) {
	for _, shape := range []struct {
		name      string
		out, back int
	}{{"3-out-3-back", 3, 3}, {"4-out-9-back", 4, 9}} {
		t.Run(shape.name, func(t *testing.T) { wireCountersMatchSchedule(t, shape.out, shape.back) })
	}
}

func wireCountersMatchSchedule(t *testing.T, nout, nback int) {
	const (
		pa, pb      = 1, 4 // CommB spans the world; CommA is wireless
		nkx, nz, ny = 4, 8, 8
		cycles      = 5
	)
	world := pa * pb
	finals := make([]mpi.WireStats, world)
	mpi.RunTCP(world, func(c *mpi.Comm) {
		d := New(c, pa, pb, nkx, nz, ny, par.NewPool(1))
		src := make([][]complex128, max(nout, nback))
		for f := range src {
			src[f] = yPencilOf(d, f)
		}
		// One cycle carries nout fields to the x-pencils and nback fields
		// home. The warm-up cycle builds the lazy transpose plans, so the
		// measured interval is pure steady-state exchange, and leaves nback
		// fields in x-pencils for the return legs to carry.
		xback := d.ZtoX(nil, d.YtoZ(nil, src[:nback]), d.NZ)
		var zp, xp, zback [][]complex128
		cycle := func() {
			zp = d.YtoZ(zp, src[:nout])
			xp = d.ZtoX(xp, zp, d.NZ)
			zback = d.XtoZ(zback, xback, d.NZ)
			d.ZtoY(src[:nback], zback)
		}
		cycle()

		before, ok := c.WireStats()
		if !ok {
			t.Errorf("rank %d: no wire stats on the TCP transport", c.Rank())
			return
		}
		for i := 0; i < cycles; i++ {
			cycle()
		}
		after, _ := c.WireStats()
		delta := wireDelta(before, after)

		// Schedule prediction for one cycle: per remote peer, each wire
		// transpose contributes BytesPerRank/CommSize payload bytes and
		// Messages/(CommSize-1) frames. CommA ops have CommSize 1 here
		// and predict zero wire traffic.
		var peerPayload, peerFrames int64
		ops := append(d.CycleSchedule(nout).Ops, d.CycleSchedule(nback).Ops...)
		for i, op := range ops {
			outbound := op.Dir == schedule.DirYtoZ || op.Dir == schedule.DirZtoX
			if (i < len(ops)/2) != outbound {
				continue // the out legs of the first cycle, the back legs of the second
			}
			if op.Kind != schedule.OpTranspose || op.CommSize <= 1 {
				continue
			}
			if op.Comm != "B" {
				t.Errorf("rank %d: unexpected wire op on Comm%s with pa=1", c.Rank(), op.Comm)
			}
			peerPayload += int64(op.BytesPerRank) / int64(op.CommSize)
			peerFrames += int64(op.Messages) / int64(op.CommSize-1)
		}
		if peerPayload == 0 || peerFrames == 0 {
			t.Errorf("rank %d: schedule predicts no wire traffic", c.Rank())
			return
		}
		for r, p := range delta.Peers {
			if r == c.Rank() {
				if p != (mpi.WirePeerStats{}) {
					t.Errorf("rank %d: nonzero self wire counters %+v", c.Rank(), p)
				}
				continue
			}
			if want := cycles * peerPayload; p.PayloadOut != want {
				t.Errorf("rank %d -> %d: payload out %d, schedule predicts %d", c.Rank(), r, p.PayloadOut, want)
			}
			if want := cycles * peerFrames; p.FramesOut != want {
				t.Errorf("rank %d -> %d: frames out %d, schedule predicts %d", c.Rank(), r, p.FramesOut, want)
			}
			if want := p.PayloadOut + tcpFrameHeaderLen*p.FramesOut; p.BytesOut != want {
				t.Errorf("rank %d -> %d: bytes out %d, want payload+header %d", c.Rank(), r, p.BytesOut, want)
			}
		}

		// Flush every ordered link with one token, then take the final
		// cumulative snapshot for the cross-rank conservation check: link
		// frames arrive in order, so once the token from a peer is in,
		// everything that peer ever enqueued for this rank is counted.
		ones, displs := make([]int, world), make([]int, world)
		for r := range ones {
			ones[r], displs[r] = 1, r
		}
		if _, err := mpi.AlltoallvInto(c, nil, make([]int64, world), ones, displs, ones, displs); err != nil {
			t.Error(err)
		}
		finals[c.Rank()], _ = c.WireStats()
	})
	// Conservation across the world: every byte rank a enqueued for rank b
	// was decoded by rank b from rank a. The final snapshots are taken
	// after an alltoall flush above — FIFO link order plus one token per
	// ordered pair guarantee each rank has decoded everything its peers
	// ever enqueued for it, so the cumulative totals must match exactly.
	for a := 0; a < world; a++ {
		for b := 0; b < world; b++ {
			if a == b {
				continue
			}
			out, in := finals[a].Peers[b], finals[b].Peers[a]
			if out.PayloadOut != in.PayloadIn || out.FramesOut != in.FramesIn || out.BytesOut != in.BytesIn {
				t.Errorf("link %d->%d not conserved: sent (%d frames, %d bytes, %d payload), received (%d frames, %d bytes, %d payload)",
					a, b, out.FramesOut, out.BytesOut, out.PayloadOut, in.FramesIn, in.BytesIn, in.PayloadIn)
			}
			// Checked here, where the link is quiet, and not on the interval
			// above: a peer already a cycle ahead moves the three inbound
			// counters while a snapshot reads them one by one.
			if want := in.PayloadIn + tcpFrameHeaderLen*in.FramesIn; in.BytesIn != want {
				t.Errorf("rank %d <- %d: bytes in %d, want payload+header %d", b, a, in.BytesIn, want)
			}
		}
	}
}

// TestWireStatsAbsentOnChannelTransport pins the contract that only wire
// transports report wire stats.
func TestWireStatsAbsentOnChannelTransport(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		if _, ok := c.WireStats(); ok {
			t.Error("channel transport reported wire stats")
		}
	})
}
