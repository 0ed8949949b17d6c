package mpi

// Posted receives. A Stream posts every receive of an exchange up front;
// each is matched in MPI order — against queued messages first, then
// against arrivals, with posted receives served FIFO per (source, tag,
// communicator) so the non-overtaking guarantee extends to stream traffic.

// Request is the payload slot of one posted stream receive.
type Request struct {
	payload any
}

// pendingRecv is a posted receive awaiting a matching message. Delivery
// stores the payload in req and sends idx on notify (buffered by the owning
// Stream, so the send never blocks).
type pendingRecv struct {
	src    int // world rank or AnySource
	commID int64
	tag    int
	req    *Request
	notify chan<- int
	idx    int
}

// postRecvNotify posts a stream receive on a caller-owned request: a queued
// matching message completes it immediately, otherwise a future put does.
// Either way the completion is announced by sending idx on notify, so the
// request (and its payload slot) can be reused across exchanges without
// re-making channels.
func (mb *mailbox) postRecvNotify(src int, commID int64, tag int, req *Request, notify chan<- int, idx int) {
	mb.mu.Lock()
	for i, m := range mb.msgs {
		if m.commID == commID &&
			(src == AnySource || m.src == src) &&
			(tag == AnyTag || m.tag == tag) {
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			mb.mu.Unlock()
			req.payload = m.payload
			notify <- idx
			return
		}
	}
	mb.pending = append(mb.pending, pendingRecv{src: src, commID: commID, tag: tag, req: req, notify: notify, idx: idx})
	mb.mu.Unlock()
}

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= c.size() {
		panic("mpi: invalid rank")
	}
}
