// Transport acceptance: the wire must be invisible to the physics. A
// trajectory computed over the TCP transport (real sockets, payloads
// serialized at the frame boundary) must be bit-identical to the same
// run on the channel transport, and the elastic restart story — a
// checkpoint written by P processes resumed by a different P — must hold
// when both runs cross the wire.
package ckpt_test

import (
	"bytes"
	"os"
	"path/filepath"
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

// TestCheckpointBytesIdenticalAcrossTransports: the same run checkpointed
// over the channel transport and over TCP, at 1x2 and at 2x2, must leave
// byte-identical stores — MANIFEST.json and every shard. The manifest is
// assembled on rank 0 from what every rank sends it, so this pins that
// gather as well as the state the shards freeze.
func TestCheckpointBytesIdenticalAcrossTransports(t *testing.T) {
	for _, grid := range [][2]int{{1, 2}, {2, 2}} {
		write := func(runner func(int, func(*mpi.Comm))) map[string][]byte {
			dir := t.TempDir()
			runner(grid[0]*grid[1], func(c *mpi.Comm) {
				s, err := core.New(c, eqCfg(grid[0], grid[1]))
				if err != nil {
					t.Error(err)
					return
				}
				initState(s)
				core.Advance(s, 2)
				if _, err := s.WriteCheckpoint(s.NewCheckpointStore(dir, 0)); err != nil {
					t.Errorf("rank %d: write: %v", c.Rank(), err)
				}
			})
			files := map[string][]byte{}
			err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				rel, _ := filepath.Rel(dir, path)
				files[rel], err = os.ReadFile(path)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			return files
		}
		want, got := write(mpi.Run), write(mpi.RunTCP)
		if t.Failed() {
			t.FailNow()
		}
		if n := 1 + grid[0]*grid[1]; len(want) != n || len(got) != n {
			t.Errorf("%dx%d: stores hold %d (chan) and %d (tcp) files, want a manifest and %d shards",
				grid[0], grid[1], len(want), len(got), n-1)
		}
		for name, w := range want {
			if !bytes.Equal(got[name], w) {
				t.Errorf("%dx%d: %s differs between the chan and tcp stores", grid[0], grid[1], name)
			}
		}
	}
}
