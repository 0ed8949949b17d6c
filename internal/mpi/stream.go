package mpi

import "fmt"

// Stream is a per-peer-progress exchange: a batch of posted receives whose
// completions are delivered one at a time, in arrival order, so a consumer
// can process peer p's block the moment it lands instead of waiting for the
// whole collective to drain. It is the communication half of internal/pencil's
// chunked transpose: the caller posts every receive of an exchange up front,
// fires sends as their data is packed, and interleaves Next with useful work
// on whatever has already arrived. That transpose's only caller is the
// benchmark module's pencil.ytoz_pipelined_us; Stream goes with it (ROADMAP
// item 3b).
//
// A Stream owns preallocated request storage and a buffered completion
// channel sized to its capacity, so the steady state performs no per-message
// allocation on the receive side (sends still pay the eager-copy the
// runtime requires). Streams are reused across exchanges with Reset and are
// not safe for concurrent use by multiple goroutines; ranks never share one.
//
// Matching uses a reserved tag, so stream traffic cannot be confused with
// user point-to-point messages or other collectives on the same
// communicator. Within one (sender, communicator) pair the runtime's
// non-overtaking order guarantees messages complete posted receives in post
// order, which is what lets the caller identify "chunk c from peer b" purely
// by the posted index.
type Stream struct {
	c      *Comm
	notify chan int
	reqs   []Request
	srcs   []int
	posted int
	taken  int
}

// NewStream returns a stream on c able to carry up to capacity in-flight
// posted receives between Resets.
func NewStream(c *Comm, capacity int) *Stream {
	if capacity <= 0 {
		panic(fmt.Sprintf("mpi: NewStream capacity %d", capacity))
	}
	return &Stream{
		c:      c,
		notify: make(chan int, capacity),
		reqs:   make([]Request, capacity),
		srcs:   make([]int, capacity),
	}
}

// Post posts a nonblocking receive from communicator rank src and returns
// its index: the value Next later delivers when that message lands.
// Receives from the same source complete in post order (non-overtaking).
func (s *Stream) Post(src int) int {
	if s.posted >= len(s.reqs) {
		panic(fmt.Sprintf("mpi: Stream posted %d receives, capacity %d", s.posted+1, len(s.reqs)))
	}
	s.c.checkRank(src)
	idx := s.posted
	s.posted++
	s.srcs[idx] = src
	req := &s.reqs[idx]
	req.payload = nil
	s.c.myBox().postRecvNotify(s.c.group[src], s.c.id, tagStream, req, s.notify, idx)
	return idx
}

// Next blocks until one of the posted receives completes and returns its
// index, the sending communicator rank, and the received payload. Arrival
// order across peers is whatever the senders produced; the caller maps idx
// back to its own (chunk, peer) bookkeeping.
func (s *Stream) Next() (idx, src int, payload any) {
	if s.taken >= s.posted {
		panic("mpi: Stream Next with no outstanding receives")
	}
	idx = <-s.notify
	s.taken++
	payload = s.reqs[idx].payload
	s.reqs[idx].payload = nil // allow the message copy to be collected
	return idx, s.srcs[idx], payload
}

// Outstanding returns the number of posted receives not yet taken by Next.
func (s *Stream) Outstanding() int { return s.posted - s.taken }

// Reset prepares the stream for the next exchange. Every posted receive
// must have been taken: resetting with receives in flight would let a stale
// completion corrupt the next exchange's index space.
func (s *Stream) Reset() {
	if s.taken != s.posted {
		panic(fmt.Sprintf("mpi: Stream reset with %d of %d receives undrained", s.posted-s.taken, s.posted))
	}
	s.posted, s.taken = 0, 0
}

// StreamSend sends data (copied, eager) to communicator rank dst on the
// stream tag, to be matched by a Stream.Post on the receiving rank.
func StreamSend[T Elem](c *Comm, dst int, data []T) {
	cp := append([]T(nil), data...)
	c.send(dst, tagStream, cp)
}

// StreamSendPrepacked sends a caller-owned, pre-boxed payload (an `any`
// holding a []T) to communicator rank dst on the stream tag, paying neither
// StreamSend's eager copy nor the per-call interface boxing — the truly
// zero-allocation send for hot pipelined exchanges.
//
// The zero-copy contract: the receiver reads the very slice the caller
// packed, so the caller must not rewrite that memory until every receiver
// is guaranteed to have consumed it. The pipelined transpose meets the
// contract by parity double-buffering: a wire buffer is reused two
// exchanges later, and a peer cannot lag a full exchange behind (its sends
// in exchange N+1 happen only after it drained every receive of exchange
// N), so the reuse can never race a read.
func StreamSendPrepacked(c *Comm, dst int, payload any) {
	c.send(dst, tagStream, payload)
}
