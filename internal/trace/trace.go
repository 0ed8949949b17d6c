// Package trace is the event layer under the telemetry aggregates: a
// per-rank flight recorder that captures individual phase spans, transpose
// exchange windows, pairwise peer exchanges and whole timesteps as timed
// events in a fixed-capacity ring buffer. Where telemetry answers "how much
// time did the transposes take", trace answers "which rank's exchange gated
// step 17" — the timeline questions behind the paper's CommA/CommB
// imbalance and strong-scaling-knee diagnoses.
//
// Recording is lock-free and allocation-free: each recorder owns a
// preallocated ring of fixed-width slots written with a per-slot seqlock
// (atomic word stores, publication last), so writers never block each other
// and a snapshot taken mid-run sees every fully published event and drops
// the rare slot caught mid-write. When the ring wraps, the oldest events
// are overwritten — flight-recorder semantics: the last Capacity events per
// rank are always available, however long the run.
//
// A nil *Recorder is a valid no-op sink, mirroring telemetry.Collector, so
// instrumented code pays a nil check when tracing is off. *Recorder
// implements telemetry.Tracer; attaching one to a Collector
// (Collector.SetTracer) makes every phase span a trace event with no change
// to the instrumentation sites.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"channeldns/internal/telemetry"
)

// Kind classifies a recorded event.
type Kind uint8

// Event kinds.
const (
	// KindPhase is one completed telemetry phase span (Event.Phase valid).
	KindPhase Kind = iota
	// KindExchange is the wire interval of one global transpose — the
	// alltoallv between pack and unpack (Event.Op valid, Event.Bytes is the
	// send+receive payload).
	KindExchange
	// KindPeer is one pairwise peer exchange inside an alltoallv
	// (Event.Peer is the source rank within the exchanging communicator,
	// Event.Bytes the received payload).
	KindPeer
	// KindStep is one completed timestep.
	KindStep
	numKinds
)

var kindNames = [numKinds]string{"phase", "exchange", "peer", "step"}

// String returns the kind name used in exports.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one decoded flight-recorder entry. Start is relative to the
// owning Trace's epoch, so events from different ranks share a time base.
type Event struct {
	Kind  Kind
	Phase telemetry.Phase  // valid for KindPhase
	Op    telemetry.CommOp // valid for KindExchange
	Stage int              // RK3 substep 0..2, -1 outside a substep
	Step  int64            // step label current when the event was recorded
	Peer  int              // exchanging peer rank for KindPeer, -1 otherwise
	Bytes int64            // payload bytes for comm events, 0 otherwise
	Start time.Duration    // event start, relative to the Trace epoch
	Dur   time.Duration
}

// Slot layout: fixed-width words per event, all accessed atomically. Word 0
// is the seqlock: a writer stores -(seq) before touching the payload words
// and +seq after, where seq is the 1-based reservation index, so a reader
// can detect both unpublished and torn slots without locks.
const (
	slotSeq = iota
	slotStart
	slotDur
	slotMeta // kind | code<<8 | (stage+1)<<16
	slotPeer
	slotBytes
	slotStep
	slotWords
)

// DefaultCapacity is the per-rank ring capacity used when New is given a
// non-positive capacity: at roughly 100 events per step on a small process
// grid, some hundreds of steps of history in ~900 KiB per rank.
const DefaultCapacity = 1 << 14

// Trace owns the flight recorders of one run: a shared epoch (so per-rank
// tracks align on one time base) and one Recorder per rank, created on
// first use. Construction takes a lock; recording never touches the Trace.
// Like a telemetry.Registry, a Trace describes a single run — step labels
// restart across runs, so reuse would interleave unrelated timelines.
type Trace struct {
	epoch    time.Time
	capacity int

	// Clock alignment of a distributed run: the estimated offset of this
	// process's clock against rank 0's (mpi.SyncClocks), carried in every
	// Dump so rank 0 can place this process's events on its own timeline.
	// Zero for in-process runs, whose ranks already share one epoch.
	clockOffset atomic.Int64 // ns to add to local time for rank 0's timeline
	clockError  atomic.Int64 // error bound, ns

	mu   sync.Mutex
	recs []*Recorder // index = rank; nil gaps until first use
}

// New returns an empty Trace whose recorders hold the last capacity events
// each (DefaultCapacity if capacity <= 0). The epoch — the zero of every
// event timestamp — is the moment of the call.
func New(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Trace{epoch: time.Now(), capacity: capacity}
}

// Epoch returns the shared time base of the trace's events.
func (t *Trace) Epoch() time.Time { return t.epoch }

// SetClockSync stamps the estimated offset of this process's clock
// against rank 0's, with its error bound, both in nanoseconds. Periodic
// re-sync may overwrite it mid-run; the export carries the latest.
func (t *Trace) SetClockSync(offsetNs, errorNs int64) {
	t.clockOffset.Store(offsetNs)
	t.clockError.Store(errorNs)
}

// ClockSync returns the stamped clock alignment (zeros when never set).
func (t *Trace) ClockSync() (offsetNs, errorNs int64) {
	return t.clockOffset.Load(), t.clockError.Load()
}

// Capacity returns the per-rank ring capacity in events.
func (t *Trace) Capacity() int { return t.capacity }

// Rank returns rank r's recorder, creating it (and its ring) on first use.
// Safe for concurrent use; call once per rank at setup time.
func (t *Trace) Rank(rank int) *Recorder {
	if rank < 0 {
		panic("trace: negative rank")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.recs) <= rank {
		t.recs = append(t.recs, nil)
	}
	if t.recs[rank] == nil {
		r := &Recorder{
			t:    t,
			rank: rank,
			buf:  make([]atomic.Int64, t.capacity*slotWords),
		}
		r.stage.Store(-1) // outside any RK3 substep until SetStage
		t.recs[rank] = r
	}
	return t.recs[rank]
}

// Ranks returns the number of rank slots registered so far.
func (t *Trace) Ranks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// Events snapshots every rank's ring: element r holds rank r's published
// events, oldest first, sorted by start time (nil for never-registered
// ranks). The snapshot is safe to take while recording continues; events
// being written at that instant are skipped, not torn.
func (t *Trace) Events() [][]Event {
	t.mu.Lock()
	recs := append([]*Recorder(nil), t.recs...)
	t.mu.Unlock()
	out := make([][]Event, len(recs))
	for i, r := range recs {
		out[i] = r.Events()
	}
	return out
}

// Dropped returns the total number of events overwritten by ring wrap
// across all ranks.
func (t *Trace) Dropped() int64 {
	t.mu.Lock()
	recs := append([]*Recorder(nil), t.recs...)
	t.mu.Unlock()
	var n int64
	for _, r := range recs {
		n += r.Dropped()
	}
	return n
}

// Recorder is one rank's flight recorder. All recording methods are safe
// for concurrent use, lock-free, and allocation-free; on a nil receiver
// they do nothing.
type Recorder struct {
	t    *Trace
	rank int

	pos   atomic.Uint64 // total events ever reserved
	step  atomic.Int64  // label stamped on subsequent events
	stage atomic.Int32  // RK3 substep label, -1 outside

	clockErr atomic.Int64 // alignment error bound of a restored rank, ns

	buf []atomic.Int64 // capacity * slotWords
}

// Rank returns the rank label.
func (r *Recorder) Rank() int {
	if r == nil {
		return 0
	}
	return r.rank
}

// record reserves the next slot and publishes one event through the
// per-slot seqlock.
func (r *Recorder) record(kind Kind, code uint8, peer int, bytes int64, t0, t1 time.Time) {
	p := r.pos.Add(1) // 1-based reservation index
	base := int((p-1)%uint64(r.t.capacity)) * slotWords
	b := r.buf[base : base+slotWords]
	b[slotSeq].Store(-int64(p)) // writing marker
	b[slotStart].Store(int64(t0.Sub(r.t.epoch)))
	b[slotDur].Store(int64(t1.Sub(t0)))
	b[slotMeta].Store(int64(kind) | int64(code)<<8 | (int64(r.stage.Load())+1)<<16)
	b[slotPeer].Store(int64(peer))
	b[slotBytes].Store(bytes)
	b[slotStep].Store(r.step.Load())
	b[slotSeq].Store(int64(p)) // publish
}

// TraceSpan records a completed telemetry phase span; it implements
// telemetry.Tracer, so a Recorder attached with Collector.SetTracer turns
// every existing instrumentation site into a timeline event.
func (r *Recorder) TraceSpan(p telemetry.Phase, t0, t1 time.Time) {
	if r == nil {
		return
	}
	r.record(KindPhase, uint8(p), -1, 0, t0, t1)
}

// Exchange records the wire interval of one global transpose: the
// alltoallv between pack and unpack, with the direction and the
// send+receive payload bytes.
func (r *Recorder) Exchange(op telemetry.CommOp, bytes int64, t0, t1 time.Time) {
	if r == nil {
		return
	}
	r.record(KindExchange, uint8(op), -1, bytes, t0, t1)
}

// Peer records one pairwise peer exchange inside an alltoallv: the wait
// for peer's block (comm-local rank) carrying the given received bytes.
func (r *Recorder) Peer(peer int, bytes int64, t0, t1 time.Time) {
	if r == nil {
		return
	}
	r.record(KindPeer, 0, peer, bytes, t0, t1)
}

// BeginStep sets the step label stamped on subsequent events.
func (r *Recorder) BeginStep(step int64) {
	if r == nil {
		return
	}
	r.step.Store(step)
}

// SetStage sets the RK3 substep label stamped on subsequent events
// (-1 = outside a substep).
func (r *Recorder) SetStage(stage int) {
	if r == nil {
		return
	}
	r.stage.Store(int32(stage))
}

// EndStep records the completed timestep as a KindStep event spanning
// [t0, t1].
func (r *Recorder) EndStep(t0, t1 time.Time) {
	if r == nil {
		return
	}
	r.record(KindStep, 0, -1, 0, t0, t1)
}

// Recorded returns the total number of events ever recorded (including
// those since overwritten).
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	return int64(r.pos.Load())
}

// Dropped returns the number of events lost to ring wrap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	if n := int64(r.pos.Load()) - int64(r.t.capacity); n > 0 {
		return n
	}
	return 0
}

// Events snapshots the ring: the published events still resident, oldest
// first, sorted by start time. Slots caught mid-write (the seqlock reads
// unpublished before or after the copy) are skipped.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	p := r.pos.Load()
	n := p
	if c := uint64(r.t.capacity); n > c {
		n = c
	}
	out := make([]Event, 0, n)
	for i := p - n; i < p; i++ {
		seq := int64(i + 1)
		base := int(i%uint64(r.t.capacity)) * slotWords
		b := r.buf[base : base+slotWords]
		if b[slotSeq].Load() != seq {
			continue // unpublished, mid-write, or already overwritten
		}
		meta := b[slotMeta].Load()
		ev := Event{
			Kind:  Kind(meta & 0xff),
			Stage: int((meta>>16)&0xffff) - 1,
			Step:  b[slotStep].Load(),
			Peer:  int(b[slotPeer].Load()),
			Bytes: b[slotBytes].Load(),
			Start: time.Duration(b[slotStart].Load()),
			Dur:   time.Duration(b[slotDur].Load()),
		}
		code := uint8(meta >> 8)
		switch ev.Kind {
		case KindPhase:
			ev.Phase = telemetry.Phase(code)
		case KindExchange:
			ev.Op = telemetry.CommOp(code)
		}
		if b[slotSeq].Load() != seq {
			continue // overwritten while decoding
		}
		out = append(out, ev)
	}
	sortEvents(out)
	return out
}

// sortEvents orders events by start time, enclosing-first on ties (longer
// duration first) so Chrome-trace nesting is well formed. Insertion sort:
// rings snapshot nearly sorted (events are recorded at end time).
func sortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && eventLess(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

func eventLess(a, b Event) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Dur != b.Dur {
		return a.Dur > b.Dur
	}
	return a.Kind < b.Kind
}
