package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// readMeasured reads the one frame in data with fresh receive lists and
// also returns the bytes that took to allocate (whatever else the process
// allocated meanwhile included; the reader's own window excluded).
func readMeasured(data []byte) (m message, spent uint64, err error) {
	br := bufio.NewReaderSize(bytes.NewReader(data), wireWindow)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, _, err = readFrame(br, &recvBufs{})
	runtime.ReadMemStats(&after)
	return m, after.TotalAlloc - before.TotalAlloc, err
}

// TestReadFrameRejects: the malformed frames a link's reader must turn into
// errors — and, for a length field that promises 4 GiB behind a kilobyte of
// body, without allocating for more than has arrived (the reader used to
// make the whole body up front).
func TestReadFrameRejects(t *testing.T) {
	good := frameOf(message{src: 1, commID: 1, tag: 5, payload: make([]complex128, 64)})
	goodBytes := frameOf(message{src: 1, commID: 1, tag: 5, payload: make([]byte, 1024)})
	withLength := func(n uint32, frame ...byte) []byte {
		if frame == nil {
			frame = good
		}
		f := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(f, n)
		return f
	}
	withKind := func(k byte) []byte {
		f := append([]byte(nil), good...)
		f[frameHeaderLen-1] = k
		return f
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error // nil: any error
	}{
		{"empty stream", nil, io.EOF},
		{"cut in the length", good[:2], io.ErrUnexpectedEOF},
		{"cut in the header", good[:10], io.ErrUnexpectedEOF},
		{"cut in the body", good[:len(good)-1], io.ErrUnexpectedEOF},
		{"length below the header", withLength(frameHeaderLen - 5), nil},
		{"odd complex128 body", withLength(uint32(len(good) - 4 - 8)), nil},
		{"huge length, bulk kind", withLength(0xFFFFFFF1), io.ErrUnexpectedEOF},
		{"huge length, control kind", withLength(0xFFFFFFF0, goodBytes...), io.ErrUnexpectedEOF},
		{"kind zero", withKind(0), nil},
		{"kind beyond the last", withKind(byte(wireGob) + 1), nil},
	} {
		_, spent, err := readMeasured(tc.frame)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		if limit := uint64(2*len(tc.frame) + wireWindow); spent > limit {
			t.Errorf("%s: allocated %d bytes for a frame of %d", tc.name, spent, len(tc.frame))
		}
	}
}

// TestReadFrameGrowsWithArrival: a body larger than the reader's window and
// than any recycled slice is decoded whole, into a slice of exactly its
// length, and a recycled slice that fits is the one it is decoded into.
func TestReadFrameGrowsWithArrival(t *testing.T) {
	want := make([]complex128, 3*wireWindow/16+5)
	for i := range want {
		want[i] = complex(float64(i), -float64(i))
	}
	frame := frameOf(message{payload: want})
	var bufs recvBufs
	m, err := decodeFrame(frame, &bufs)
	if err != nil {
		t.Fatal(err)
	}
	got := m.payload.([]complex128)
	if len(got) != len(want) || cap(got) != len(want) {
		t.Fatalf("decoded len %d cap %d, want %d exactly", len(got), cap(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: %v, want %v", i, got[i], want[i])
		}
	}
	bufs.c128.put(got)
	m, err = decodeFrame(frame, &bufs)
	if err != nil {
		t.Fatal(err)
	}
	if again := m.payload.([]complex128); &again[0] != &got[0] {
		t.Error("a recycled slice of the right size was not reused")
	}
}

// TestFreeListBounded: a list never holds more than freeListLen slices, a
// full one drops its oldest, slices too short to be worth finding are not
// kept, and get only hands out a slice the request fills at least half of.
func TestFreeListBounded(t *testing.T) {
	var f freeList[byte]
	f.put(make([]byte, 0, freeListMin-1))
	if len(f.bufs) != 0 {
		t.Fatal("kept a slice below freeListMin")
	}
	for n := 1; n <= 3*freeListLen; n++ {
		f.put(make([]byte, 0, 1000*n))
	}
	if len(f.bufs) != freeListLen {
		t.Fatalf("list holds %d slices, bound %d", len(f.bufs), freeListLen)
	}
	for _, b := range f.bufs {
		if cap(b) <= 1000*2*freeListLen {
			t.Errorf("kept a slice of cap %d, put before the last %d", cap(b), freeListLen)
		}
	}
	if b := f.get(100); b != nil {
		t.Errorf("a request for 100 bytes was given cap %d", cap(b))
	}
	if b := f.get(1000 * 3 * freeListLen); cap(b) != 1000*3*freeListLen || len(b) != 0 {
		t.Errorf("exact-size request got len %d cap %d", len(b), cap(b))
	}
	if len(f.bufs) != freeListLen-1 {
		t.Errorf("get did not remove the slice it returned")
	}
}

// FuzzReadFrame: whatever bytes a peer writes, the frame reader returns a
// message or an error — it does not panic, and it does not allocate out of
// proportion to the input, whatever the length field claims. The bound is 8x
// the input plus one window: the decoded form of a payload can be 4x its wire
// form (a 16-byte string header per 4-byte length prefix) next to the scratch
// body it was collected in, and a body that outgrows the window is copied as
// its slice doubles. Frames of the gob kind are held to the rest but not to
// the bound: past the frame boundary their bytes are encoding/gob's, which
// does not promise to resist hostile streams (it was seen to allocate 10 MB
// for 103 bytes). A frame that decodes survives a further encode/decode round
// trip unchanged.
func FuzzReadFrame(f *testing.F) {
	for _, p := range wirePayloads() {
		f.Add(frameOf(message{src: 2, commID: 1_000_003_000_007, tag: tagAlltoall, payload: p}))
	}
	bulk := frameOf(message{src: 1, commID: 1, tag: 0, payload: make([]complex128, 40)})
	f.Add(bulk[:len(bulk)-7]) // truncated body
	huge := append([]byte(nil), bulk...)
	binary.LittleEndian.PutUint32(huge, 0xFFFFFFF0)
	f.Add(huge)
	badKind := append([]byte(nil), bulk...)
	badKind[frameHeaderLen-1] = 0xEE
	f.Add(badKind)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, spent, err := readMeasured(data)
		isGob := len(data) >= frameHeaderLen && wireKind(data[frameHeaderLen-1]) == wireGob
		if limit := uint64(8*len(data) + wireWindow); spent > limit && !isGob {
			t.Fatalf("allocated %d bytes reading %d", spent, len(data))
		}
		if err != nil {
			return
		}
		again, err := decodeFrame(frameOf(m), &recvBufs{})
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !sameMessage(m, again) {
			t.Fatalf("round trip changed the message: %+v, then %+v", m, again)
		}
	})
}

// TestAlltoallvTCPReusesNothingLive: two exchanges in a row with different
// data over the wire. The second reuses the frames and receive slices of the
// first; neither result may see the other's data, and a result must not be
// a recycled slice (it is the caller's, the transport's memory is copied out
// of).
func TestAlltoallvTCPReusesNothingLive(t *testing.T) {
	const p, block = 3, 5000
	RunTCP(p, func(c *Comm) {
		counts, displs := make([]int, p), make([]int, p)
		for r := range counts {
			counts[r], displs[r] = block, r*block
		}
		fill := func(round int) []complex128 {
			send := make([]complex128, p*block)
			for i := range send {
				send[i] = complex(float64(round), float64(c.Rank()*len(send)+i))
			}
			return send
		}
		check := func(round int, got []complex128) {
			for src := 0; src < p; src++ {
				for i := 0; i < block; i++ {
					want := complex(float64(round), float64(src*p*block+c.Rank()*block+i))
					if got[src*block+i] != want {
						t.Errorf("rank %d round %d: element %d from %d is %v, want %v", c.Rank(), round, i, src, got[src*block+i], want)
						return
					}
				}
			}
		}
		first, err := AlltoallvInto(c, nil, fill(1), counts, displs, counts, displs)
		if err != nil {
			t.Error(err)
		}
		second, err := AlltoallvInto(c, nil, fill(2), counts, displs, counts, displs)
		if err != nil {
			t.Error(err)
		}
		check(1, first)
		check(2, second)
		tr := c.t.(*tcpTransport)
		for r, peer := range tr.peers {
			if peer == nil {
				continue
			}
			peer.recv.c128.mu.Lock()
			for _, b := range peer.recv.c128.bufs {
				b = b[:cap(b)]
				for _, res := range [][]complex128{first, second} {
					if &b[0] == &res[r*block] {
						t.Errorf("rank %d: a result aliases a recycled receive slice", c.Rank())
					}
				}
			}
			if len(peer.recv.c128.bufs) == 0 {
				t.Errorf("rank %d: no receive slice from %d was handed back", c.Rank(), r)
			}
			peer.recv.c128.mu.Unlock()
		}
	})
}

// BenchmarkAlltoallvTCP times one two-rank exchange over loopback sockets at
// the two message sizes of the scalar step at 32x33x32 on 1x2 ranks: 4 and 9
// fields of 4224 modes out of each rank's half.
func BenchmarkAlltoallvTCP(b *testing.B) {
	for _, bc := range []struct {
		name   string
		fields int
	}{{"4x4224", 4}, {"9x4224", 9}} {
		b.Run(bc.name, func(b *testing.B) {
			block := bc.fields * 4224
			counts, displs := []int{block, block}, []int{0, block}
			b.ReportAllocs()
			b.SetBytes(int64(16 * block))
			RunTCP(2, func(c *Comm) {
				send := make([]complex128, 2*block)
				recv := make([]complex128, 2*block)
				for i := 0; i < 3; i++ { // warm the link's free lists
					AlltoallvInto(c, recv, send, counts, displs, counts, displs)
				}
				c.Barrier()
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					AlltoallvInto(c, recv, send, counts, displs, counts, displs)
				}
				c.Barrier()
				if c.Rank() == 0 {
					b.StopTimer()
				}
			})
		})
	}
}
