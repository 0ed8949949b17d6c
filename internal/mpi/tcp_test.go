package mpi

import (
	"bufio"
	"bytes"
	"math"
	"net"
	"reflect"
	"testing"
	"time"
)

// wirePayloads returns a payload of every Elem type and an empty one of
// each, including IEEE bit patterns that are not equal to themselves (NaN) or
// that compare equal across distinct encodings (signed zero), and strings
// that are not ASCII.
func wirePayloads() []any {
	return []any{
		[]byte{0, 1, 255},
		[]byte{},
		[]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1.5e-300},
		[]float64{},
		[]complex128{complex(1, -2), complex(math.Inf(-1), math.NaN()), complex(math.Copysign(0, -1), 0)},
		[]complex128{},
		[]int{-1, 0, 1 << 40},
		[]int{},
		[]int64{math.MinInt64, math.MaxInt64},
		[]int64{},
		[]string{"", "hello", "με unicode", "\xff\x00"},
		[]string{},
	}
}

// frameOf encodes m into a fresh frame.
func frameOf(m message) []byte { return encodeFrame(m, new(freeList[byte])) }

// decodeFrame reads the one frame in data the way a link's reader would.
func decodeFrame(data []byte, bufs *recvBufs) (message, error) {
	m, _, err := readFrame(bufio.NewReaderSize(bytes.NewReader(data), wireWindow), bufs)
	return m, err
}

// sameMessage reports whether two messages have the same header and the
// same payload.
func sameMessage(a, b message) bool {
	return a.src == b.src && a.commID == b.commID && a.tag == b.tag && samePayload(a.payload, b.payload)
}

// samePayload reports whether two payloads are slices of the identical
// dynamic type with the same elements, bit for bit (a nil and an empty slice
// are the same payload).
func samePayload(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Type() == vb.Type() && va.Len() == vb.Len() &&
		(va.Len() == 0 || reflect.DeepEqual(frameBits(a), frameBits(b)))
}

// TestWireRoundTrip pins the payload codec: a payload of every kind must
// come back from a frame as a deeply equal value of the identical dynamic
// type, bit for bit.
func TestWireRoundTrip(t *testing.T) {
	for _, p := range wirePayloads() {
		m := message{src: 3, commID: 1_000_003_000_007, tag: tagStream, payload: p}
		got, err := decodeFrame(frameOf(m), &recvBufs{})
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		if !sameMessage(m, got) {
			t.Fatalf("%T round trip: sent %+v, got %+v", p, m, got)
		}
	}
}

// frameBits maps float payloads to raw bit patterns so NaN-carrying
// slices compare by representation, and leaves everything else alone.
func frameBits(p any) any {
	switch v := p.(type) {
	case []float64:
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	case []complex128:
		out := make([][2]uint64, len(v))
		for i, c := range v {
			out[i] = [2]uint64{math.Float64bits(real(c)), math.Float64bits(imag(c))}
		}
		return out
	default:
		return p
	}
}

// TestWireUnknownTypePanics: sending a type the wire does not know is a
// programming error and must fail loudly, not silently corrupt a run.
func TestWireUnknownTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered payload type")
		}
	}()
	appendPayload(nil, []float32{1})
}

// TestTCPFrameEncodeDecode covers the frame header: negative reserved
// tags and 64-bit communicator ids must survive the i32/i64 packing.
func TestTCPFrameEncodeDecode(t *testing.T) {
	m := message{src: 3, commID: 1_000_003_000_007, tag: tagStream, payload: []float64{1, 2}}
	frame := frameOf(m)
	n := int(uint32(frame[0]) | uint32(frame[1])<<8 | uint32(frame[2])<<16 | uint32(frame[3])<<24)
	if n != len(frame)-4 {
		t.Fatalf("frame length field %d, frame body %d", n, len(frame)-4)
	}
}

// TestRunTCPPointToPoint: basic send/recv and sendrecv over real
// sockets, including tag selectivity and AnySource.
func TestRunTCPPointToPoint(t *testing.T) {
	RunTCP(4, func(c *Comm) {
		if c.TransportName() != "tcp" {
			t.Errorf("transport name %q", c.TransportName())
		}
		switch c.Rank() {
		case 0:
			for i := 1; i < 4; i++ {
				got := Recv[float64](c, AnySource, 7)
				if len(got) != 2 || got[0] != float64(10*got[1]) {
					t.Errorf("rank 0 got %v", got)
				}
			}
		default:
			Send(c, 0, 7, []float64{float64(10 * c.Rank()), float64(c.Rank())})
		}
	})
}

// TestRunTCPNonOvertaking: two messages with the same (src, tag) must
// arrive in send order through the wire, and a posted stream-receive pair
// must complete in post order.
func TestRunTCPNonOvertaking(t *testing.T) {
	RunTCP(2, func(c *Comm) {
		if c.Rank() == 1 {
			StreamSend(c, 0, []int{0})
			StreamSend(c, 0, []int{1})
			for i := 2; i < 32; i++ {
				Send(c, 0, 5, []int{i})
			}
			return
		}
		s := NewStream(c, 2)
		s.Post(1)
		s.Post(1)
		for i := 0; i < 2; i++ {
			if idx, _, payload := s.Next(); payload.([]int)[0] != idx {
				t.Errorf("posted receive %d completed with message %v", idx, payload)
			}
		}
		for i := 2; i < 32; i++ {
			if got := Recv[int](c, 1, 5)[0]; got != i {
				t.Errorf("message %d arrived as %d", i, got)
			}
		}
	})
}

// TestRunTCPStream: the pipelined exchange's per-peer-progress stream
// must deliver arrival-order completions over the wire.
func TestRunTCPStream(t *testing.T) {
	const P = 3
	RunTCP(P, func(c *Comm) {
		s := NewStream(c, P-1)
		idxSrc := make(map[int]int)
		for p := 1; p < P; p++ {
			src := (c.Rank() + p) % P
			idxSrc[s.Post(src)] = src
		}
		for p := 1; p < P; p++ {
			dst := (c.Rank() - p + P) % P
			StreamSend(c, dst, []complex128{complex(float64(c.Rank()), float64(dst))})
		}
		for p := 1; p < P; p++ {
			idx, src, payload := s.Next()
			if idxSrc[idx] != src {
				t.Errorf("stream idx %d mapped to %d, got src %d", idx, idxSrc[idx], src)
			}
			v := payload.([]complex128)[0]
			if real(v) != float64(src) || imag(v) != float64(c.Rank()) {
				t.Errorf("stream payload %v from %d at rank %d", v, src, c.Rank())
			}
		}
		s.Reset()
	})
}

// TestConnectTCPBadConfig: config errors surface as errors, not hangs.
func TestConnectTCPBadConfig(t *testing.T) {
	if _, err := ConnectTCP(TCPConfig{Rank: 2, World: 2, Coord: "127.0.0.1:1"}); err == nil {
		t.Error("rank out of world accepted")
	}
	if _, err := ConnectTCP(TCPConfig{Rank: 0, World: 2}); err == nil {
		t.Error("missing coordinator accepted")
	}
	start := time.Now()
	_, err := ConnectTCP(TCPConfig{Rank: 1, World: 2, Coord: "127.0.0.1:9", Timeout: 200 * time.Millisecond})
	if err == nil {
		t.Error("unreachable coordinator accepted")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("bootstrap timeout did not bound the dial")
	}
}

// TestRunTCPWorldOfOne: the degenerate world needs no sockets at all.
func TestRunTCPWorldOfOne(t *testing.T) {
	ran := false
	RunTCP(1, func(c *Comm) {
		if c.Size() != 1 || c.Rank() != 0 {
			t.Errorf("world of one: rank %d size %d", c.Rank(), c.Size())
		}
		ran = true
	})
	if !ran {
		t.Fatal("fn never ran")
	}
}

// TestTCPLinkRejectsForeignSrc: a frame on the link to rank 1 that names
// rank 2 as its sender is a frame error. It must not reach the mailbox,
// where it would complete a receive from rank 2.
func TestTCPLinkRejectsForeignSrc(t *testing.T) {
	tr := &tcpTransport{self: 0, world: 3, box: newMailbox(), peers: make([]*tcpPeer, 3)}
	tr.closing.Store(true) // a frame error then ends the link instead of the process
	near, far := net.Pipe()
	tr.addPeer(1, near)
	for _, src := range []int{1, 2} {
		if _, err := far.Write(frameOf(message{src: src, commID: 1, tag: 5, payload: []int{src}})); err != nil {
			t.Fatal(err)
		}
	}
	far.Close()
	tr.Close()
	if len(tr.box.msgs) != 1 || tr.box.msgs[0].src != 1 {
		t.Errorf("the link to rank 1 delivered %+v, want rank 1's frame alone", tr.box.msgs)
	}
}
