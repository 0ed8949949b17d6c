// Transport acceptance: the wire must be invisible to the physics. A
// trajectory computed over the TCP transport (real sockets, payloads
// serialized at the frame boundary) must be bit-identical to the same
// run on the channel transport, and the elastic restart story — a
// checkpoint written by P processes resumed by a different P — must hold
// when both runs cross the wire.
package ckpt_test

import (
	"testing"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// TestTCPTrajectoryBitIdenticalToChan: P=4 over TCP vs P=4 over
// channels, exact == on every spline coefficient of every mode. The
// wire codec moves float64/complex128 as raw IEEE-754 bits, so any
// mismatch here means a message was reordered, truncated, or re-rounded
// in flight.
func TestTCPTrajectoryBitIdenticalToChan(t *testing.T) {
	const steps = 4
	run := func(runner func(int, func(*mpi.Comm))) *snapshot {
		sn := newSnapshot()
		runner(4, func(c *mpi.Comm) {
			s, err := core.New(c, eqCfg(2, 2))
			if err != nil {
				t.Error(err)
				return
			}
			initState(s)
			core.Advance(s, steps)
			sn.collect(s)
		})
		return sn
	}
	ref := run(mpi.Run)
	if t.Failed() {
		t.Fatal("channel-transport reference failed")
	}
	got := run(mpi.RunTCP)
	if t.Failed() {
		t.Fatal("tcp-transport run failed")
	}
	mustEqual(t, got, ref, "tcp vs chan")
}

// TestTCPElasticRestart: checkpoint at P=4 over TCP, resume at P=2 over
// TCP (the re-sharded read path plus the wire), and land bit-identical
// to an uninterrupted channel-transport P=4 run — the end-to-end elastic
// multi-process restart the distributed launcher relies on.
func TestTCPElasticRestart(t *testing.T) {
	ref := newSnapshot()
	mpi.Run(4, func(c *mpi.Comm) {
		s, err := core.New(c, eqCfg(2, 2))
		if err != nil {
			t.Error(err)
			return
		}
		initState(s)
		core.Advance(s, 6)
		ref.collect(s)
	})
	if t.Failed() {
		t.Fatal("reference run failed")
	}

	dir := t.TempDir()
	mpi.RunTCP(4, func(c *mpi.Comm) {
		s, err := core.New(c, eqCfg(2, 2))
		if err != nil {
			t.Error(err)
			return
		}
		initState(s)
		core.Advance(s, 3)
		if _, err := s.WriteCheckpoint(s.NewCheckpointStore(dir, 0)); err != nil {
			t.Errorf("rank %d: write: %v", c.Rank(), err)
		}
	})
	if t.Failed() {
		t.Fatal("tcp checkpoint run failed")
	}

	got := newSnapshot()
	mpi.RunTCP(2, func(c *mpi.Comm) {
		s, err := core.New(c, eqCfg(1, 2))
		if err != nil {
			t.Error(err)
			return
		}
		name, err := s.ResumeLatest(s.NewCheckpointStore(dir, 0))
		if err != nil {
			t.Errorf("rank %d: resume: %v", c.Rank(), err)
			return
		}
		if name != "step-0000000003" {
			t.Errorf("resumed from %q, want step-0000000003", name)
		}
		core.Advance(s, 3)
		got.collect(s)
	})
	if t.Failed() {
		t.FailNow()
	}
	mustEqual(t, got, ref, "tcp elastic P=4 -> P=2")
}
