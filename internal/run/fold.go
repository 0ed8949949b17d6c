package run

import (
	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// Fold is how rank 0 learns its world: one exchange on the observability
// plane, made at heartbeat cadence and once after the last step. Every
// rank sends one fixed-shape frame through the uninstrumented
// mpi.GatherHeartbeat, so the exchange adds nothing to the comm tables it
// feeds.
//
// On a wire transport every rank is taken to be its own process with its
// own registry and trace. Its frame carries
//
//	its collector dump            telemetry.DumpLen() words   (with Reg)
//	its wire dump                 telemetry.WireDumpLen(world) (with Reg)
//	its recorder dump             Trace.DumpLen()              (final, with Trace)
//
// and rank 0 makes each remote collector's replica in its registry the
// rank's newest dump, keeps the wire dumps as the registry's wire block,
// and on the final fold restores the recorders onto its own trace. Ranks
// in one process share the registry and trace already, so their frames are
// empty. Either way rank 0 stamps every rank's arrival on the tracker.
//
// The frame's shape follows from the fields, so every rank sets the same
// ones; a Fold with nothing to carry and no tracker exchanges nothing.
type Fold struct {
	Reg     *telemetry.Registry
	Trace   *trace.Trace
	Tracker *telemetry.WorldTracker
}

// Gather makes the exchange; final adds the recorder dumps, which rank 0
// can restore only once. A collective: every rank calls it at the same
// step. Errors are rank 0's.
func (f Fold) Gather(c *mpi.Comm, final bool) error {
	ws, wire := c.WireStats()
	collectors := wire && f.Reg != nil
	var frame []int64
	if collectors {
		frame = append(f.Reg.Rank(c.Rank()).Dump(), ws.Dump()...)
	}
	recorders := wire && final && f.Trace != nil
	if recorders {
		frame = append(frame, f.Trace.Rank(c.Rank()).Dump()...)
	}
	if len(frame) == 0 && f.Tracker == nil {
		return nil
	}
	world, heard, err := mpi.GatherHeartbeat(c, 0, frame)
	if err != nil || c.Rank() != 0 {
		return err
	}
	n, cn, wn := len(frame), telemetry.DumpLen(), telemetry.WireDumpLen(c.Size())
	var wires []int64
	for r := 0; r < c.Size(); r++ {
		fr := world[r*n : (r+1)*n]
		if collectors {
			if r != 0 {
				if err := f.Reg.RestoreRank(r, fr[:cn]); err != nil {
					return err
				}
			}
			wires = append(wires, fr[cn:cn+wn]...)
			fr = fr[cn+wn:]
		}
		if recorders && r != 0 {
			if err := f.Trace.Restore(r, fr); err != nil {
				return err
			}
		}
		if f.Tracker != nil {
			if err := f.Tracker.Observe(r, heard[r]); err != nil {
				return err
			}
		}
	}
	if wires != nil {
		sum, err := telemetry.WireSummaryFromDumps(c.TransportName(), c.Size(), wires)
		if err != nil {
			return err
		}
		f.Reg.SetWire(sum)
	}
	return nil
}
