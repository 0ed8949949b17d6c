package mpi

import "testing"

// TestSyncClocksBoundsOffset: all ranks of a RunTCP world share one
// process clock, so the true offset is zero and every estimate must land
// within its own error bound — which the symmetric-path estimator
// guarantees structurally (t2 is taken inside [t1, t3]).
func TestSyncClocksBoundsOffset(t *testing.T) {
	RunTCP(4, func(c *Comm) {
		cs := SyncClocks(c, 8)
		if c.Rank() == 0 {
			if cs != (ClockSync{}) {
				t.Errorf("rank 0 sync %+v, want zero (rank 0 is the reference)", cs)
			}
			return
		}
		if cs.ErrorNs < 0 {
			t.Errorf("rank %d: negative error bound %d", c.Rank(), cs.ErrorNs)
		}
		off := cs.OffsetNs
		if off < 0 {
			off = -off
		}
		if off > cs.ErrorNs {
			t.Errorf("rank %d: offset %d ns outside its own error bound %d ns on a shared clock",
				c.Rank(), cs.OffsetNs, cs.ErrorNs)
		}
	})
}

func TestSyncClocksChannelTransport(t *testing.T) {
	// The collective is transport-agnostic; in-process ranks also share
	// the clock.
	Run(3, func(c *Comm) {
		cs := SyncClocks(c, 4)
		if c.Rank() == 0 {
			return
		}
		off := cs.OffsetNs
		if off < 0 {
			off = -off
		}
		if off > cs.ErrorNs {
			t.Errorf("rank %d: offset %d outside bound %d", c.Rank(), cs.OffsetNs, cs.ErrorNs)
		}
	})
}

func TestSyncClocksSingleRank(t *testing.T) {
	Run(1, func(c *Comm) {
		if cs := SyncClocks(c, 5); cs != (ClockSync{}) {
			t.Errorf("size-1 sync %+v, want zero", cs)
		}
	})
}

func TestGatherHeartbeat(t *testing.T) {
	RunTCP(3, func(c *Comm) {
		data := []int64{int64(c.Rank() * 10), int64(c.Rank()*10 + 1)}
		world, arrivals, err := GatherHeartbeat(c, 0, data)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if c.Rank() != 0 {
			if world != nil || arrivals != nil {
				t.Errorf("rank %d: non-root got a gather result", c.Rank())
			}
			return
		}
		if len(world) != 6 || len(arrivals) != 3 {
			t.Fatalf("root got %d values, %d arrivals; want 6, 3", len(world), len(arrivals))
		}
		for r := 0; r < 3; r++ {
			if world[2*r] != int64(r*10) || world[2*r+1] != int64(r*10+1) {
				t.Errorf("rank %d payload %v", r, world[2*r:2*r+2])
			}
			if arrivals[r] <= 0 {
				t.Errorf("rank %d arrival stamp %d, want a wall-clock time", r, arrivals[r])
			}
		}
	})
}
