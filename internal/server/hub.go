package server

import (
	"context"
	"encoding/json"
	"sync"
)

// The hub is the fan-out point between one running job and its readers.
// The run loop publishes from between solver steps and must NEVER block
// on a consumer — a stalled TCP connection on the far side of an SSE
// stream cannot be allowed to stall the simulation or the other readers.
// Publish therefore only appends to a bounded ring of recent events and
// wakes whoever waits; every reader, SSE and long-poll alike, pulls from
// the ring with Wait and its own cursor. A reader that falls more than the
// ring behind finds its next batch starting past its cursor (events carry
// sequence numbers, so the gap is visible) and only its own stream is
// lost. A late joiner catches up by reading the ring from cursor 0.

// ringCap is how many recent events a hub keeps for its readers.
const ringCap = 256

// Event stream types.
const (
	EventState     = "state"     // lifecycle transition; data is a Status
	EventStatus    = "status"    // periodic status; data is a Status
	EventTelemetry = "telemetry" // data is a telemetry.SnapshotDelta
	EventPlane     = "plane"     // data is a PlaneFrame (PNG by reference)
)

// Event is one stream item. Seq increases by 1 per event on a given job;
// a reader that sees a jump knows it fell behind or joined late.
type Event struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// Hub broadcasts one job's event stream.
type Hub struct {
	mu     sync.Mutex
	seq    uint64
	ring   []Event // last ringCap events, oldest first, Seq contiguous
	closed bool
	// wake is closed and replaced on every publish; readers wait on it
	// instead of polling the ring.
	wake chan struct{}
}

// NewHub creates an open hub with an empty ring.
func NewHub() *Hub {
	return &Hub{wake: make(chan struct{})}
}

// Publish appends an event of the given type to the ring and wakes the
// readers. It never blocks on a reader, and costs the same however many
// there are. The data is marshaled once, shared by all readers.
func (h *Hub) Publish(typ string, data any) {
	raw, err := json.Marshal(data)
	if err != nil {
		// Stream payloads are our own structs; a marshal failure is a
		// programming error, but the stream is advisory — skip the event
		// rather than panic mid-run.
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	h.ring = append(h.ring, Event{Seq: h.seq, Type: typ, Data: raw})
	if len(h.ring) > ringCap {
		h.ring = h.ring[len(h.ring)-ringCap:]
	}
	close(h.wake)
	h.wake = make(chan struct{})
}

// Close ends the stream: future Publish calls are no-ops and readers are
// released. Called only on terminal job states — a paused job keeps its
// hub open so readers ride through the resume.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	close(h.wake)
}

// Since returns the buffered events with Seq > after and whether the
// stream is still open.
func (h *Hub) Since(after uint64) ([]Event, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.since(after), !h.closed
}

// since copies the ring's events with Seq > after; h.mu is held.
func (h *Hub) since(after uint64) []Event {
	if len(h.ring) == 0 || after >= h.seq {
		return nil
	}
	skip := 0
	if first := h.ring[0].Seq; after >= first {
		skip = int(after - first + 1)
	}
	return append([]Event(nil), h.ring[skip:]...)
}

// Wait blocks until an event with Seq > after exists, the stream closes,
// or ctx expires; it then returns Since(after). Both stream endpoints
// read through it: long-poll once per request, SSE in a loop.
func (h *Hub) Wait(ctx context.Context, after uint64) ([]Event, bool) {
	for {
		h.mu.Lock()
		if h.seq > after || h.closed {
			events, open := h.since(after), !h.closed
			h.mu.Unlock()
			return events, open
		}
		wake := h.wake
		h.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return h.Since(after)
		}
	}
}

// missed reports whether a batch Wait returned for cursor skips events: the
// ring moved past cursor+1 while the reader was away. Cursor 0 (nothing
// read yet) misses nothing: its first batch is the ring's replay.
func missed(cursor uint64, events []Event) bool {
	return cursor > 0 && len(events) > 0 && events[0].Seq > cursor+1
}
