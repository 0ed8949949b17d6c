package telemetry

import "fmt"

// Cross-process rank merging. On the in-process transports every rank's
// Collector lives in one Registry, so reports see the whole world for
// free. On the TCP transport each rank is its own OS process with a
// single-collector registry; every rank Dumps its collector to a
// fixed-shape []int64 (fixed shape is what lets the dumps ride one gather)
// and rank 0 RestoreRanks them into its registry, at heartbeat cadence and
// once after the last step (internal/run's Fold). The merged registry is
// indistinguishable from an in-process run's: the same min/mean/max/
// imbalance aggregation, the same schedule-consistency cross-checks in
// bench-validate.

// A collector dump has a fixed layout of counters only: per phase its time
// and call counters (phaseDumpLen values); from commDumpBase on, per comm
// channel its three counters; from stepDumpBase on, flops, steps and step
// time.
const (
	phaseDumpLen = 2
	commDumpBase = int(NumPhases) * phaseDumpLen
	stepDumpBase = commDumpBase + int(NumCommOps)*3
	dumpLen      = stepDumpBase + 3
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
	}
	for i := range c.comm {
		rec := &c.comm[i]
		out = append(out, rec.calls.Load(), rec.messages.Load(), rec.bytes.Load())
	}
	return append(out, c.flops.Load(), c.steps.Load(), c.stepNs.Load())
}

// loadDump stores a dump into the collector counter by counter, so the
// collector becomes a replica of the dumped one. A later dump of the same
// remote replaces the replica; since the remote's counters only grow, a
// concurrent reader sees each counter only grow too.
func (c *Collector) loadDump(d []int64) error {
	if len(d) != dumpLen {
		return fmt.Errorf("telemetry: dump of %d values, want %d (schema drift between ranks?)", len(d), dumpLen)
	}
	k := 0
	next := func() int64 { v := d[k]; k++; return v }
	for i := range c.phases {
		rec := &c.phases[i]
		rec.ns.Store(next())
		rec.calls.Store(next())
	}
	for i := range c.comm {
		rec := &c.comm[i]
		rec.calls.Store(next())
		rec.messages.Store(next())
		rec.bytes.Store(next())
	}
	c.flops.Store(next())
	c.steps.Store(next())
	c.stepNs.Store(next())
	return nil
}

// RestoreRank makes rank's collector in this registry, created if needed,
// a replica of a remote rank's dump. Restoring a newer dump of the same
// rank replaces the replica; nothing is counted twice.
func (r *Registry) RestoreRank(rank int, dump []int64) error {
	return r.Rank(rank).loadDump(dump)
}
