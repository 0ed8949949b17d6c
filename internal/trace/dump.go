package trace

import (
	"fmt"
	"time"
)

// Cross-process world timeline. In-process ranks share one Trace, so its
// export sees the whole world for free. On the TCP transport each rank is
// its own OS process with its own Trace and epoch; at the end of a run
// every rank Dumps its recorder to a fixed-shape []int64, the dumps ride an
// ordinary mpi.Gather (fixed shape is what makes the gather legal), and
// rank 0 Restores them into its own Trace, each rank's starts shifted onto
// rank 0's clock:
//
//	aligned start = start + (remote epoch + offset − rank 0's epoch)
//
// The result is indistinguishable from an in-process run's Trace: one
// Chrome file with a track per rank and flow arrows between matched
// exchanges, and Analyze and Summarize over the whole world.
//
// Alignment caveat: offsets come from RTT ping-pong estimation with error
// bound RTT/2 (mpi.SyncClocks), so cross-rank orderings tighter than the
// bound are not trustworthy — an exchange may appear to end before its
// peer's matching window opens. Within a rank, order is exact.

// A dump is a header followed by the ring's slot words as recorded.
const (
	dumpEpoch    = iota // trace epoch, Unix ns on the dumping process's wall clock
	dumpOffset          // clock offset against rank 0, ns (Trace.SetClockSync)
	dumpError           // the offset's error bound, ns
	dumpReserved        // events ever reserved (Recorder.Recorded)
	dumpHeader
)

// MaxWorld bounds the rank Restore places a dump into, so a corrupt rank
// cannot size the trace's per-rank table out of memory.
const MaxWorld = 1 << 20

// DumpLen returns the length of every Dump of t's recorders; recorders of
// different capacity have dumps of different length.
func (t *Trace) DumpLen() int { return dumpHeader + t.capacity*slotWords }

// Dump serializes the recorder, with its trace's epoch and clock alignment,
// into a fixed-shape []int64 for Restore on another process. A slot caught
// mid-write is dumped unpublished, so Restore skips it as Events would.
func (r *Recorder) Dump() []int64 {
	out := make([]int64, dumpHeader, r.t.DumpLen())
	out[dumpEpoch] = r.t.epoch.UnixNano()
	out[dumpOffset], out[dumpError] = r.t.ClockSync()
	out[dumpReserved] = int64(r.pos.Load())
	for base := 0; base < len(r.buf); base += slotWords {
		b := r.buf[base : base+slotWords]
		seq := b[slotSeq].Load()
		for i := range b {
			out = append(out, b[i].Load())
		}
		if b[slotSeq].Load() != seq {
			out[dumpHeader+base+slotSeq] = 0
		}
	}
	return out
}

// Restore places another process's Dump into rank's recorder of t, its
// starts shifted from the remote epoch onto t's by the dump's clock
// offset. The recorder must not hold events yet. A dump whose length is
// not t's DumpLen or whose header is negative, or a rank outside
// [0, MaxWorld), is refused with an error.
func (t *Trace) Restore(rank int, d []int64) error {
	if len(d) != t.DumpLen() {
		return fmt.Errorf("trace: dump of %d values, want %d (recorders of different capacity?)", len(d), t.DumpLen())
	}
	if d[dumpReserved] < 0 || d[dumpError] < 0 {
		return fmt.Errorf("trace: dump header counts %d events with error bound %d ns", d[dumpReserved], d[dumpError])
	}
	if rank < 0 || rank >= MaxWorld {
		return fmt.Errorf("trace: restore into rank %d outside [0, %d)", rank, MaxWorld)
	}
	r := t.Rank(rank)
	if r.Recorded() != 0 {
		return fmt.Errorf("trace: rank %d already holds %d events", rank, r.Recorded())
	}
	shift := d[dumpEpoch] + d[dumpOffset] - t.epoch.UnixNano()
	for i, v := range d[dumpHeader:] {
		if i%slotWords == slotStart {
			v += shift
		}
		r.buf[i].Store(v)
	}
	r.clockErr.Store(d[dumpError])
	r.pos.Store(uint64(d[dumpReserved]))
	return nil
}

// ClockError returns the clock-alignment error bound of a restored rank's
// events on this trace's timeline; zero for a rank recorded in process.
func (r *Recorder) ClockError() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.clockErr.Load())
}
