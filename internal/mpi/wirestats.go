package mpi

import "channeldns/internal/telemetry"

// Wire-level transport counters. The TCP transport counts every frame it
// enqueues and decodes per peer link (tcp.go); this file is the read
// side: a snapshot type for tests and tools, and the fixed-shape dump
// that rides rank 0's fold of the world (internal/run's Fold) into the
// report's wire block. The channel transport has no wire and reports
// nothing.

// WirePeerStats is a snapshot of one peer link's counters.
type WirePeerStats struct {
	// FramesOut/BytesOut/PayloadOut count outbound frames at enqueue time:
	// whole frames, frame bytes including the header, and serialized
	// payload bytes (frame minus the fixed 21-byte header).
	FramesOut, BytesOut, PayloadOut int64
	// FramesIn/BytesIn/PayloadIn are the receive-side counterparts.
	FramesIn, BytesIn, PayloadIn int64
	// QueueHighWater is the deepest the link's writer queue has been.
	QueueHighWater int64
	// SerializeNs is the time spent encoding payloads into frames.
	SerializeNs int64
}

// WireStats is a snapshot of one rank's wire counters across all peers.
type WireStats struct {
	Self, World int
	// DialRetries counts failed bootstrap dial attempts.
	DialRetries int64
	// Peers is indexed by world rank; the self entry is always zero.
	Peers []WirePeerStats
}

// WireStats snapshots the transport's wire counters. ok is false on
// transports without a wire (the in-process channel transport). Counters
// are monotone, so callers diff two snapshots to isolate an interval.
func (c *Comm) WireStats() (WireStats, bool) {
	t, isTCP := c.t.(*tcpTransport)
	if !isTCP {
		return WireStats{}, false
	}
	ws := WireStats{Self: t.self, World: t.world,
		DialRetries: t.dialRetries.Load(),
		Peers:       make([]WirePeerStats, t.world)}
	for r, p := range t.peers {
		if p == nil {
			continue
		}
		ws.Peers[r] = WirePeerStats{
			FramesOut: p.framesOut.Load(), BytesOut: p.bytesOut.Load(), PayloadOut: p.payloadOut.Load(),
			FramesIn: p.framesIn.Load(), BytesIn: p.bytesIn.Load(), PayloadIn: p.payloadIn.Load(),
			QueueHighWater: p.queueHWM.Load(), SerializeNs: p.serializeNs.Load(),
		}
	}
	return ws, true
}

// Dump flattens the snapshot into telemetry's wire-dump layout
// (telemetry.WireDumpLen(world) words) for the cross-process gather.
func (ws WireStats) Dump() []int64 {
	out := make([]int64, telemetry.WireDumpLen(ws.World))
	out[0] = ws.DialRetries
	for r, p := range ws.Peers {
		s := out[1+r*telemetry.WirePeerDumpLen:]
		s[telemetry.WireFramesOut] = p.FramesOut
		s[telemetry.WireBytesOut] = p.BytesOut
		s[telemetry.WirePayloadOut] = p.PayloadOut
		s[telemetry.WireFramesIn] = p.FramesIn
		s[telemetry.WireBytesIn] = p.BytesIn
		s[telemetry.WirePayloadIn] = p.PayloadIn
		s[telemetry.WireQueueHighWater] = p.QueueHighWater
		s[telemetry.WireSerializeNs] = p.SerializeNs
	}
	return out
}
