// Package telemetry is the observability spine of the reproduction: one
// accounting vocabulary for everything the paper's timing tables measure.
// Each simulated MPI rank owns a Collector; kernels open phase-scoped
// Regions around the leaf operations of a timestep (FFT stages, global
// transposes, banded solves, pointwise products) and bump monotonic
// counters for communication traffic and floating-point work. A Registry
// aggregates the per-rank collectors into the min/mean/max/imbalance
// summaries the paper's per-platform tables report, and report.go encodes
// them as the machine-readable BENCH_*.json artifacts cmd/bench, cmd/dns
// and dnsserve emit.
//
// The steady-state recording path allocates nothing: spans are value
// types, every accumulator is an atomic counter, and a nil *Collector is a
// valid no-op sink, so instrumented kernels pay two calls to time.Now and a
// few atomic operations per region when telemetry is enabled and almost
// nothing when it is not. All Collector methods are safe for concurrent
// use; the counters are order-independent sums, which is what makes
// aggregated reports deterministic for a given set of samples regardless of
// worker interleaving. A region's own start and end are kept only by an
// attached Tracer (the flight recorder), which is where per-span latency
// lives.
package telemetry

import (
	"sync/atomic"
	"time"

	"channeldns/internal/schedule"
)

// Phase partitions a timestep's wall clock the way the paper's Tables
// 5-11 do. Regions are opened around *leaf* operations (no phase nests
// inside another), so the per-phase totals sum to the instrumented wall
// clock.
//
// The taxonomy itself — the enum, the canonical snake_case names, the
// paper-column mapping — is defined once in internal/schedule (each
// schedule op carries its phase), and aliased here so instrumentation
// sites keep importing telemetry alone.
type Phase = schedule.Phase

// The phase taxonomy, re-exported from internal/schedule (the single
// definition site). See the schedule package for per-phase documentation;
// README "Observability" maps each phase to the paper-table column it
// reproduces.
const (
	PhaseNonlinear    = schedule.PhaseNonlinear
	PhaseFFTForward   = schedule.PhaseFFTForward
	PhaseFFTInverse   = schedule.PhaseFFTInverse
	PhaseTransposeAB  = schedule.PhaseTransposeAB
	PhaseViscousSolve = schedule.PhaseViscousSolve
	PhasePressure     = schedule.PhasePressure
	PhaseCollective   = schedule.PhaseCollective
	PhaseCheckpoint   = schedule.PhaseCheckpoint
	// NumPhases is the number of phases (array extent, not a phase).
	NumPhases = schedule.NumPhases
)

// PhaseFromString inverts Phase.String; ok is false for unknown names.
func PhaseFromString(s string) (Phase, bool) { return schedule.PhaseFromString(s) }

// CommOp identifies one communication channel in the comm accounting:
// the four global transpose directions plus everything else.
type CommOp uint8

// Communication channels.
const (
	CommYtoZ       CommOp = iota // y-pencils -> z-pencils (CommB)
	CommZtoY                     // z-pencils -> y-pencils (CommB)
	CommZtoX                     // z-pencils -> x-pencils (CommA)
	CommXtoZ                     // x-pencils -> z-pencils (CommA)
	CommCollective               // barriers, reductions, broadcasts, gathers
	CommCheckpoint               // checkpoint shard/manifest bytes (internal/ckpt)
	NumCommOps
)

// Channel names: the four schedule transpose directions (the paper's
// labels) plus the catch-all collective channel and the checkpoint-I/O
// channel, sourced from the schedule vocabulary so comm tables and
// schedule blocks agree byte-for-byte.
var commOpNames = [NumCommOps]string{
	schedule.DirYtoZ, schedule.DirZtoY, schedule.DirZtoX, schedule.DirXtoZ,
	schedule.PhaseCollective.String(), schedule.PhaseCheckpoint.String(),
}

// String returns the channel name used in reports (matching the paper's
// transpose direction labels).
func (op CommOp) String() string {
	if op < NumCommOps {
		return commOpNames[op]
	}
	return "unknown"
}

// Tracer receives every completed phase span when attached to a Collector
// with SetTracer. It is the one-way bridge to the event layer
// (internal/trace implements it): telemetry keeps aggregates, the tracer
// keeps the timeline, and instrumentation sites stay unchanged.
// Implementations must be safe for concurrent use and must not block.
type Tracer interface {
	TraceSpan(p Phase, start, end time.Time)
}

// tracerBox wraps the interface value so the Collector can swap it with a
// single atomic pointer operation (an atomic.Pointer needs a concrete
// pointee type).
type tracerBox struct{ t Tracer }

// phaseRec is the per-phase accumulator inside a Collector.
type phaseRec struct {
	ns    atomic.Int64 // total time inside the phase
	calls atomic.Int64
}

// commRec is the per-channel communication accumulator.
type commRec struct {
	calls    atomic.Int64
	messages atomic.Int64
	bytes    atomic.Int64
}

// Collector accumulates one rank's telemetry. The zero value is ready to
// use; a nil *Collector is a valid sink whose methods do nothing, so
// instrumented code never branches on "telemetry enabled".
type Collector struct {
	rank int

	phases [NumPhases]phaseRec
	comm   [NumCommOps]commRec

	flops  atomic.Int64
	steps  atomic.Int64
	stepNs atomic.Int64

	// tracer, when attached, receives every completed span; nil pointer =
	// tracing off, one atomic load per Span.End either way.
	tracer atomic.Pointer[tracerBox]
}

// NewCollector returns a collector labeled with an MPI rank. Collectors
// are usually obtained from a Registry; standalone construction is for
// tests and single-rank tools.
func NewCollector(rank int) *Collector { return &Collector{rank: rank} }

// Rank returns the rank label.
func (c *Collector) Rank() int {
	if c == nil {
		return 0
	}
	return c.rank
}

// Span is an open region returned by Begin. It is a value type: starting
// and ending a region performs no heap allocation. A span is ended exactly
// once; it may be handed to another goroutine across a happens-before edge
// (a channel operation, a pool loop's dispatch or return) and ended there.
type Span struct {
	c     *Collector
	phase Phase
	t0    time.Time
}

// Begin opens a phase region. On a nil collector it returns an inert span.
func (c *Collector) Begin(p Phase) Span {
	if c == nil {
		return Span{}
	}
	return Span{c: c, phase: p, t0: time.Now()}
}

// End closes the region, crediting its duration to the phase.
func (sp Span) End() {
	c := sp.c
	if c == nil {
		return
	}
	d := time.Since(sp.t0)
	rec := &c.phases[sp.phase]
	rec.ns.Add(int64(d))
	rec.calls.Add(1)
	if box := c.tracer.Load(); box != nil {
		box.t.TraceSpan(sp.phase, sp.t0, sp.t0.Add(d))
	}
}

// SetTracer attaches (or, with nil, detaches) the event-layer sink that
// receives every completed span. Safe to call while spans are open;
// in-flight spans observe either the old or the new tracer.
func (c *Collector) SetTracer(t Tracer) {
	if c == nil {
		return
	}
	if t == nil {
		c.tracer.Store(nil)
		return
	}
	c.tracer.Store(&tracerBox{t: t})
}

// AddComm credits one communication operation moving the given payload
// bytes as the given number of point-to-point messages.
func (c *Collector) AddComm(op CommOp, bytes, messages int64) {
	if c == nil {
		return
	}
	rec := &c.comm[op]
	rec.calls.Add(1)
	rec.messages.Add(messages)
	rec.bytes.Add(bytes)
}

// AddFlops credits floating-point work (typically the machine model's
// per-step operation count).
func (c *Collector) AddFlops(n int64) {
	if c == nil {
		return
	}
	c.flops.Add(n)
}

// StepDone records one completed timestep of the given wall-clock
// duration.
func (c *Collector) StepDone(d time.Duration) {
	if c == nil {
		return
	}
	c.steps.Add(1)
	c.stepNs.Add(int64(d))
}

// PhaseSeconds returns the accumulated wall clock inside a phase.
func (c *Collector) PhaseSeconds(p Phase) float64 {
	if c == nil {
		return 0
	}
	return time.Duration(c.phases[p].ns.Load()).Seconds()
}

// PhaseCalls returns the number of closed regions of a phase.
func (c *Collector) PhaseCalls(p Phase) int64 {
	if c == nil {
		return 0
	}
	return c.phases[p].calls.Load()
}

// CommCounts returns the accumulated (calls, messages, bytes) of a
// communication channel.
func (c *Collector) CommCounts(op CommOp) (calls, messages, bytes int64) {
	if c == nil {
		return 0, 0, 0
	}
	rec := &c.comm[op]
	return rec.calls.Load(), rec.messages.Load(), rec.bytes.Load()
}

// Steps returns the number of recorded timesteps.
func (c *Collector) Steps() int64 {
	if c == nil {
		return 0
	}
	return c.steps.Load()
}

// StepSeconds returns the total recorded timestep wall clock.
func (c *Collector) StepSeconds() float64 {
	if c == nil {
		return 0
	}
	return time.Duration(c.stepNs.Load()).Seconds()
}

// Flops returns the accumulated floating-point work.
func (c *Collector) Flops() int64 {
	if c == nil {
		return 0
	}
	return c.flops.Load()
}

// Reset zeroes every accumulator (phase, comm and step counters),
// keeping the rank label. Benchmark harnesses call it after warmup.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.phases {
		rec := &c.phases[i]
		rec.ns.Store(0)
		rec.calls.Store(0)
	}
	for i := range c.comm {
		rec := &c.comm[i]
		rec.calls.Store(0)
		rec.messages.Store(0)
		rec.bytes.Store(0)
	}
	c.flops.Store(0)
	c.steps.Store(0)
	c.stepNs.Store(0)
}
