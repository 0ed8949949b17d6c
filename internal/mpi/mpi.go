// Package mpi is a message-passing runtime standing in for MPI in the
// channel DNS. Messages carry MPI matching semantics (source, tag,
// communicator, non-overtaking order) through per-rank mailboxes; the
// subset implemented is exactly what the DNS and its parallel FFT need:
// point-to-point Send/Recv/Sendrecv, Barrier, Bcast, Allreduce, Gather,
// Alltoall(v), communicator splitting, and the cartesian topology helpers
// (CartCreate/CartSub) the paper uses to build its CommA and CommB
// sub-communicators.
//
// Delivery is pluggable behind the Transport interface (transport.go).
// The default channel transport runs every rank as a goroutine in one
// process (Run); the TCP transport runs one OS process per rank over
// persistent peer connections (ConnectTCP, cmd/dnsrun), with the same
// matching semantics, so CartCreate/CartSub/Alltoallv/Stream callers
// cannot tell the transports apart except by the clock.
//
// A message is a slice of one Elem type (wire.go): complex128, float64,
// byte, int, int64 or string — the closed set, like MPI's fixed datatypes,
// that both transports carry, so a payload the wire could not frame does not
// compile.
//
// Sends are eager: the payload is copied (or, on the wire, serialized)
// before Send returns, so the usual MPI buffer-reuse rules hold and
// exchange patterns that would deadlock with rendezvous semantics do not.
package mpi

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// AnyTag matches any tag in Recv.
const AnyTag = -1

// AnySource matches any source rank in Recv.
const AnySource = -1

// reserved tag space for collectives, out of reach of user tags (>= 0).
const (
	tagBarrier = -1000 - iota
	tagBcast
	tagReduce
	tagGather
	tagAlltoall
	tagSplit
	tagStream
	tagClock     // SyncClocks ping-pong (clock.go)
	tagHeartbeat // GatherHeartbeat telemetry deltas (clock.go)
)

type message struct {
	src     int // world rank of sender
	commID  int64
	tag     int
	payload any
}

type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	msgs    []message
	pending []pendingRecv // posted stream receives, FIFO
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	// A posted stream receive matching this message takes priority, in
	// post order, preserving non-overtaking for stream traffic.
	for i, p := range mb.pending {
		if p.commID == m.commID &&
			(p.src == AnySource || p.src == m.src) &&
			(p.tag == AnyTag || p.tag == m.tag) {
			mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
			mb.mu.Unlock()
			p.req.payload = m.payload
			// Deliver the posted index on the stream's (buffered,
			// never-blocking) completion channel.
			p.notify <- p.idx
			return
		}
	}
	mb.msgs = append(mb.msgs, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// take removes and returns the first message matching (src, commID, tag),
// blocking until one arrives.
func (mb *mailbox) take(src int, commID int64, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.msgs {
			if m.commID == commID &&
				(src == AnySource || m.src == src) &&
				(tag == AnyTag || m.tag == tag) {
				mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
				return m
			}
		}
		mb.cond.Wait()
	}
}

// Comm is a communicator: an ordered group of ranks with a private message
// space. The zero value is not usable; communicators come from Run, Split,
// or the cartesian constructors.
type Comm struct {
	t        Transport
	id       int64
	rank     int   // this process's rank within the communicator
	group    []int // comm rank -> world rank
	splitSeq int   // per-rank counter of collective split operations

	// tel, when non-nil, receives PhaseCollective timing samples and
	// CommCollective traffic counters from Barrier/Bcast/Allreduce/Gather.
	// Derived communicators (Split, the cartesian constructors) inherit it.
	// The alltoallv family is deliberately NOT instrumented here: the pencil
	// transpose plans account that traffic per direction, and counting it
	// twice would corrupt the comm tables.
	tel *telemetry.Collector

	// trc, when non-nil, records one flight-recorder event per pairwise
	// peer exchange inside the alltoallv family — the per-peer wait
	// timeline behind the straggler analysis. Inherited like tel. The
	// aggregate telemetry double-counting concern does not apply: trace
	// events are a timeline, not counters.
	trc *trace.Recorder
}

// SetTelemetry attaches a per-rank telemetry collector to the communicator.
// Communicators split from this one afterwards inherit the collector; a nil
// collector (the default) makes the instrumentation a no-op.
func (c *Comm) SetTelemetry(t *telemetry.Collector) { c.tel = t }

// SetTracer attaches a per-rank flight recorder to the communicator.
// Communicators split from this one afterwards inherit it; nil (the
// default) records nothing.
func (c *Comm) SetTracer(r *trace.Recorder) { c.trc = r }

// Run starts size ranks, invoking fn on each with its world communicator,
// and returns when every rank has finished.
func Run(size int, fn func(c *Comm)) {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	w := &world{size: size, boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	group := make([]int, size)
	for i := range group {
		group[i] = i
	}
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		c := &Comm{t: &chanTransport{w: w, self: r}, id: 1, rank: r, group: group}
		go func() {
			defer wg.Done()
			fn(c)
			c.Close()
		}()
	}
	wg.Wait()
}

// Rank returns the calling rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size() }

func (c *Comm) size() int { return len(c.group) }

func (c *Comm) myBox() *mailbox { return c.t.LocalBox() }

// send delivers a payload (already copied) to comm rank dst.
func (c *Comm) send(dst, tag int, payload any) {
	if dst < 0 || dst >= c.size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d of %d", dst, c.size()))
	}
	c.t.Deliver(c.group[dst], message{src: c.group[c.rank], commID: c.id, tag: tag, payload: payload})
}

// recv blocks until a matching message arrives and returns its payload.
func (c *Comm) recv(src, tag int) any {
	worldSrc := AnySource
	if src != AnySource {
		if src < 0 || src >= c.size() {
			panic(fmt.Sprintf("mpi: recv from invalid rank %d of %d", src, c.size()))
		}
		worldSrc = c.group[src]
	}
	m := c.myBox().take(worldSrc, c.id, tag)
	return m.payload
}

// Send copies data and delivers it to rank dst with the given tag (>= 0).
func Send[T Elem](c *Comm, dst, tag int, data []T) {
	if tag < 0 {
		panic("mpi: user tags must be >= 0")
	}
	cp := append([]T(nil), data...)
	c.send(dst, tag, cp)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. src may be AnySource and tag may be AnyTag.
func Recv[T Elem](c *Comm, src, tag int) []T {
	if tag < 0 && tag != AnyTag {
		panic("mpi: user tags must be >= 0")
	}
	return c.recv(src, tag).([]T)
}

// Sendrecv exchanges data with the given partners in one operation, the
// pattern FFTW's transpose planner uses as an alternative to alltoall.
func Sendrecv[T Elem](c *Comm, dst, sendTag int, data []T, src, recvTag int) []T {
	Send(c, dst, sendTag, data)
	return Recv[T](c, src, recvTag)
}

// Split partitions the communicator: ranks passing the same color form a new
// communicator, ordered by (key, parent rank). Every rank of c must call
// Split. A negative color returns nil for that rank (MPI_UNDEFINED).
func (c *Comm) Split(color, key int) *Comm {
	c.splitSeq++
	// Allgather the (color, key, rank) triples through rank 0 of the parent.
	all := []int{color, key, c.rank}
	if c.rank == 0 {
		for i := 1; i < c.size(); i++ {
			all = append(all, c.recv(AnySource, tagSplit).([]int)...)
		}
		for i := 1; i < c.size(); i++ {
			c.send(i, tagSplit, all)
		}
	} else {
		c.send(0, tagSplit, all)
		all = c.recv(0, tagSplit).([]int)
	}
	if color < 0 {
		return nil
	}
	// Deterministic group: members with my color sorted by (key, rank).
	var members [][2]int
	for i := 0; i < len(all); i += 3 {
		if all[i] == color {
			members = append(members, [2]int{all[i+1], all[i+2]})
		}
	}
	slices.SortFunc(members, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	group := make([]int, len(members))
	newRank := -1
	for i, m := range members {
		group[i] = c.group[m[1]]
		if m[1] == c.rank {
			newRank = i
		}
	}
	// All members derive the same child id deterministically.
	id := c.id*1_000_003 + int64(c.splitSeq)*1009 + int64(color) + 7
	return &Comm{t: c.t, id: id, rank: newRank, group: group, tel: c.tel, trc: c.trc}
}
