package telemetry

import "fmt"

// Cross-process rank merging. On the in-process transports every rank's
// Collector lives in one Registry, so reports see the whole world for
// free. On the TCP transport each rank is its own OS process with a
// single-collector registry; before rank 0 writes the report, every rank
// Dumps its collector to a fixed-shape []int64 and the dumps ride an
// ordinary mpi.Gather (fixed shape is what makes the gather legal) so
// rank 0 can RestoreRank them into its registry. The merged registry is
// indistinguishable from an in-process run's: the same min/mean/max/
// imbalance aggregation, the same histogram quantiles, the same
// schedule-consistency cross-checks in bench-validate.

// A collector dump has a fixed layout: per phase the time and call
// counters plus the latency histogram buckets (phaseDumpLen values); from
// commDumpBase on, per comm channel its three counters; from stepDumpBase
// on, flops, steps, step time, and the step-latency histogram.
const (
	phaseDumpLen = 2 + histBuckets
	commDumpBase = int(NumPhases) * phaseDumpLen
	stepDumpBase = commDumpBase + int(NumCommOps)*3
	dumpLen      = stepDumpBase + 3 + histBuckets
)

// DumpLen returns the length of every Collector.Dump result.
func DumpLen() int { return dumpLen }

// Dump serializes the collector's accumulators into a fixed-shape
// []int64. Concurrent recording during Dump yields a torn-but-valid
// snapshot (each counter individually atomic), which is the same
// guarantee Snapshot gives; callers quiesce ranks (a barrier) first when
// they need exact totals.
func (c *Collector) Dump() []int64 {
	out := make([]int64, 0, dumpLen)
	for i := range c.phases {
		rec := &c.phases[i]
		out = append(out, rec.ns.Load(), rec.calls.Load())
		for b := 0; b < histBuckets; b++ {
			out = append(out, rec.hist.counts[b].Load())
		}
	}
	for i := range c.comm {
		rec := &c.comm[i]
		out = append(out, rec.calls.Load(), rec.messages.Load(), rec.bytes.Load())
	}
	out = append(out, c.flops.Load(), c.steps.Load(), c.stepNs.Load())
	for b := 0; b < histBuckets; b++ {
		out = append(out, c.stepHist.counts[b].Load())
	}
	return out
}

// addDump merges a dump into the collector by addition, so restoring
// onto a fresh collector reproduces the remote one exactly.
func (c *Collector) addDump(d []int64) error {
	if len(d) != dumpLen {
		return fmt.Errorf("telemetry: dump of %d values, want %d (schema drift between ranks?)", len(d), dumpLen)
	}
	k := 0
	next := func() int64 { v := d[k]; k++; return v }
	for i := range c.phases {
		rec := &c.phases[i]
		rec.ns.Add(next())
		rec.calls.Add(next())
		for b := 0; b < histBuckets; b++ {
			if n := next(); n != 0 {
				rec.hist.counts[b].Add(n)
				rec.hist.total.Add(n)
			}
		}
	}
	for i := range c.comm {
		rec := &c.comm[i]
		rec.calls.Add(next())
		rec.messages.Add(next())
		rec.bytes.Add(next())
	}
	c.flops.Add(next())
	c.steps.Add(next())
	c.stepNs.Add(next())
	for b := 0; b < histBuckets; b++ {
		if n := next(); n != 0 {
			c.stepHist.counts[b].Add(n)
			c.stepHist.total.Add(n)
		}
	}
	return nil
}

// RestoreRank merges a remote rank's dump into this registry, creating
// the rank's collector if needed. Restoring twice double-counts; restore
// each remote rank exactly once.
func (r *Registry) RestoreRank(rank int, dump []int64) error {
	return r.Rank(rank).addDump(dump)
}

// DumpView is a read-only decoded view over one collector dump, for
// consumers that want individual counters without restoring into a
// registry (the world tracker reads step and phase counters out of
// heartbeat dumps this way). The view aliases the dump slice.
type DumpView struct{ d []int64 }

// ViewDump wraps a dump for field access; ok is false when the slice is
// not dump-shaped.
func ViewDump(d []int64) (DumpView, bool) {
	if len(d) != dumpLen {
		return DumpView{}, false
	}
	return DumpView{d: d}, true
}

// PhaseNs returns the accumulated nanoseconds of a phase.
func (v DumpView) PhaseNs(p Phase) int64 { return v.d[int(p)*phaseDumpLen] }

// PhaseCalls returns the closed-region count of a phase.
func (v DumpView) PhaseCalls(p Phase) int64 { return v.d[int(p)*phaseDumpLen+1] }

// CommCounts returns the (calls, messages, bytes) counters of a channel.
func (v DumpView) CommCounts(op CommOp) (calls, messages, bytes int64) {
	base := commDumpBase + int(op)*3
	return v.d[base], v.d[base+1], v.d[base+2]
}

// Steps returns the completed-timestep count.
func (v DumpView) Steps() int64 { return v.d[stepDumpBase+1] }

// StepNs returns the accumulated timestep nanoseconds.
func (v DumpView) StepNs() int64 { return v.d[stepDumpBase+2] }

// Flops returns the accumulated floating-point work.
func (v DumpView) Flops() int64 { return v.d[stepDumpBase] }
