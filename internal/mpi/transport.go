package mpi

// Transport is the rank-to-rank delivery layer behind a Comm. Everything
// above it — tag matching, non-overtaking order, the posted-receive
// table that Stream posts into, the collectives, the cartesian topology
// helpers — lives in the shared mailbox machinery and is transport-
// agnostic; a Transport's only job is to route an already-boxed message
// to the destination rank's mailbox. Two implementations exist:
//
//   - the channel transport (the default): every rank is a goroutine in
//     one process and Deliver is a direct put into the destination
//     mailbox, preserving the zero-copy payload semantics the pipelined
//     transpose's prepacked sends rely on;
//   - the TCP transport (tcp.go): one OS process per rank, persistent
//     per-peer connections carrying length-prefixed binary frames, with
//     payloads copied at the frame boundary (wire.go) — the form real
//     distributed runs take.
//
// The interface is deliberately sealed around the unexported message and
// mailbox types: transports are constructed inside this package (Run,
// RunTCP, ConnectTCP) and a Comm never leaks one.
type Transport interface {
	// Self returns the world rank this transport instance serves. Each
	// rank owns its own Transport value, even when (as with the channel
	// transport) ranks share underlying state.
	Self() int
	// WorldSize returns the number of ranks in the world.
	WorldSize() int
	// Deliver routes a message to world rank dst's mailbox. The payload
	// inside m has already been copied per the caller's contract (eager
	// sends copy; prepacked stream sends deliberately do not); a wire
	// transport additionally serializes it at the frame boundary.
	Deliver(dst int, m message)
	// Copies reports whether Deliver to another rank copies the payload
	// before it returns (a wire transport serializes it into the frame), so
	// that an eager send need not copy it first.
	Copies() bool
	// Release hands back a payload received from world rank src that the
	// receiver has copied out and holds no reference to, for the transport
	// to receive into again. Optional for receivers; a no-op where payloads
	// arrive by reference.
	Release(src int, payload any)
	// LocalBox returns the mailbox this rank's receives match against.
	LocalBox() *mailbox
	// Name identifies the transport in reports and diagnostics
	// ("chan", "tcp").
	Name() string
	// Close releases transport resources. For the channel transport it
	// is a no-op; for the TCP transport it flushes and half-closes the
	// peer links. Close must be called at most once per rank.
	Close() error
}

// world is the shared state of one in-process channel-transport world:
// one mailbox per rank.
type world struct {
	size  int
	boxes []*mailbox
}

// chanTransport is the default in-process transport: Deliver is a direct
// mailbox put, exactly the seed runtime's semantics (payloads cross rank
// boundaries by reference; generic sends copy first, prepacked stream
// sends share the caller's buffer under the documented parity contract).
type chanTransport struct {
	w    *world
	self int
}

func (t *chanTransport) Self() int                  { return t.self }
func (t *chanTransport) WorldSize() int             { return t.w.size }
func (t *chanTransport) Deliver(dst int, m message) { t.w.boxes[dst].put(m) }
func (t *chanTransport) Copies() bool               { return false }
func (t *chanTransport) Release(int, any)           {}
func (t *chanTransport) LocalBox() *mailbox         { return t.w.boxes[t.self] }
func (t *chanTransport) Name() string               { return "chan" }
func (t *chanTransport) Close() error               { return nil }

// TransportName returns the name of the transport carrying this
// communicator's traffic ("chan" for the in-process runtime, "tcp" for
// the wire transport); reports stamp it so paired A/B artifacts are
// distinguishable.
func (c *Comm) TransportName() string { return c.t.Name() }

// Close releases the transport behind this communicator. It must be
// called once per rank, after the last communication operation on any
// communicator derived from the same world (derived communicators share
// the rank's transport). Programs run through Run or RunTCP need not
// call it — the runner closes each rank's transport when fn returns.
func (c *Comm) Close() error { return c.t.Close() }
