package perf

import "runtime"

// Allocation accounting: the zero-allocation steady state is a measurable
// property, so the benchmark tools sample the Go runtime's allocation
// counters around kernels. Readings are process-wide (runtime.ReadMemStats): a delta
// attributes allocations from EVERY goroutine that ran in the interval,
// not just the caller's, so exact counts are only meaningful around serial
// regions; around concurrent ones they are whole-process rates.

// AllocSample is a snapshot of the runtime's cumulative allocation
// counters.
type AllocSample struct {
	// Bytes is cumulative heap bytes allocated (MemStats.TotalAlloc).
	Bytes uint64
	// Mallocs is the cumulative count of heap objects allocated.
	Mallocs uint64
}

// ReadAllocs samples the runtime allocation counters. It stops the world
// briefly; do not call it inside a hot loop, only around one.
func ReadAllocs() AllocSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return AllocSample{Bytes: ms.TotalAlloc, Mallocs: ms.Mallocs}
}

// AllocDelta is the allocation traffic between two samples.
type AllocDelta struct {
	Bytes   uint64
	Mallocs uint64
}

// Sub returns the traffic between an earlier sample old and this one.
func (a AllocSample) Sub(old AllocSample) AllocDelta {
	return AllocDelta{Bytes: a.Bytes - old.Bytes, Mallocs: a.Mallocs - old.Mallocs}
}
