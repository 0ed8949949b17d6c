package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Frames of the TCP transport and who owns their memory.
//
// A data frame is [u32 length][i32 src][i64 commID][i32 tag][u8 kind]
// [payload], little-endian; the length counts everything behind itself.
//
// Sending: encodeFrame writes the payload once, into a frame of exactly the
// frame's size taken from the peer link's free list, and that copy is the
// eager copy of the send. The frame belongs to the link's writer goroutine
// until the socket write has returned, which then puts it back on the list.
//
// Receiving: readFrame decodes []complex128 and []float64 bodies out of the
// reader's bufio window straight into a slice from the link's receive lists;
// the other kinds, control traffic, are collected in a scratch body and
// copied out of it by decodePayload. A decoded payload belongs to whoever
// receives the message; a receiver that has copied it out may hand it back
// (Transport.Release, which AlltoallvInto calls), and only such slices are
// ever reused, so nothing a receiver still holds is written again.
//
// Each list keeps at most freeListLen slices, so what a link holds back is
// bounded by a few of the largest messages it has carried, however long it
// runs.

// frameHeaderLen is the fixed per-frame overhead: the u32 length prefix
// plus the src/commID/tag/kind header it counts.
const frameHeaderLen = 21

// wireWindow is the size of a link's bufio reader and writer. A frame body
// is decoded window by window, and memory for it is committed at that pace.
const wireWindow = 1 << 16

// freeListLen bounds each free list of a peer link.
const freeListLen = 8

// freeList is a bounded set of slices kept for reuse.
type freeList[T any] struct {
	mu   sync.Mutex
	bufs [][]T
}

// get takes a slice that holds n elements with at most half of it to spare,
// emptied, or returns nil. A nil list has nothing.
func (f *freeList[T]) get(n int) []T {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, b := range f.bufs {
		if n <= cap(b) && cap(b) <= 2*n {
			last := len(f.bufs) - 1
			f.bufs[i], f.bufs[last] = f.bufs[last], nil
			f.bufs = f.bufs[:last]
			return b[:0]
		}
	}
	return nil
}

// put offers b for reuse. A full list keeps its largest slices: they are the
// ones whose reallocation costs most, and a link carries few distinct large
// sizes but many small ones.
func (f *freeList[T]) put(b []T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.bufs) < freeListLen {
		f.bufs = append(f.bufs, b)
		return
	}
	smallest := 0
	for i := range f.bufs {
		if cap(f.bufs[i]) < cap(f.bufs[smallest]) {
			smallest = i
		}
	}
	if cap(f.bufs[smallest]) < cap(b) {
		f.bufs[smallest] = b
	}
}

// encodeFrame serializes a message into one wire frame, reusing a frame from
// free (which may be nil) when one fits.
func encodeFrame(m message, free *freeList[byte]) []byte {
	need := 64 // a gob payload's size is known only once it is encoded
	if n := payloadSize(m.payload); n >= 0 {
		need = frameHeaderLen + n
	}
	frame := free.get(need)
	if frame == nil {
		frame = make([]byte, 0, need)
	}
	frame = frame[:frameHeaderLen]
	binary.LittleEndian.PutUint32(frame[4:], uint32(int32(m.src)))
	binary.LittleEndian.PutUint64(frame[8:], uint64(m.commID))
	binary.LittleEndian.PutUint32(frame[16:], uint32(int32(m.tag)))
	frame, kind := appendPayload(frame, m.payload)
	frame[frameHeaderLen-1] = byte(kind)
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	return frame
}

// recvBufs is what one link's reader reuses between frames.
type recvBufs struct {
	c128 freeList[complex128]
	f64  freeList[float64]
	body []byte               // scratch body of the kinds decodePayload copies out of
	hdr  [frameHeaderLen]byte // kept here so that reading into it allocates nothing
}

// readFrame reads one frame from br and returns its message and the
// payload's size on the wire. The error is io.EOF, bare, only when the
// stream ends on a frame boundary; a frame that is cut short, whose length
// contradicts its kind, or whose kind is unknown is an error too. Memory for
// the body is committed as its bytes arrive, never on the word of the length
// field alone.
func readFrame(br *bufio.Reader, bufs *recvBufs) (m message, payloadLen int, err error) {
	hdr := bufs.hdr[:]
	if _, err = io.ReadFull(br, hdr[:4]); err != nil {
		if err != io.EOF {
			err = fmt.Errorf("mpi: reading frame length: %w", err)
		}
		return m, 0, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:4]))
	if n < frameHeaderLen-4 {
		return m, 0, fmt.Errorf("mpi: frame of %d bytes", n)
	}
	if _, err = io.ReadFull(br, hdr[4:]); err != nil {
		return m, 0, fmt.Errorf("mpi: reading frame header: %w", cutShort(err))
	}
	m.src = int(int32(binary.LittleEndian.Uint32(hdr[4:])))
	m.commID = int64(binary.LittleEndian.Uint64(hdr[8:]))
	m.tag = int(int32(binary.LittleEndian.Uint32(hdr[16:])))
	kind := wireKind(hdr[frameHeaderLen-1])
	payloadLen = int(n - (frameHeaderLen - 4))
	switch kind {
	case wireComplex128:
		m.payload, err = readElems(br, bufs.c128.get(payloadLen/16), payloadLen, 16, decodeComplex128)
	case wireFloat64:
		m.payload, err = readElems(br, bufs.f64.get(payloadLen/8), payloadLen, 8, decodeFloat64)
	case wireBytes, wireInt, wireInt64, wireString, wireSplit, wireGob:
		bufs.body, err = readElems(br, bufs.body, payloadLen, 1, func(dst, src []byte) { copy(dst, src) })
		if err == nil {
			m.payload, err = decodePayload(kind, bufs.body)
		}
		if cap(bufs.body) > wireWindow {
			bufs.body = nil // control traffic is small; do not hold on to a large body
		}
	default:
		err = fmt.Errorf("mpi: unknown wire kind %d", kind)
	}
	return m, payloadLen, err
}

// cutShort turns the io.EOF of a stream that ended inside a frame into
// io.ErrUnexpectedEOF: only an end on a frame boundary is a clean close.
func cutShort(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readElems reads a body of n bytes as elements of size bytes each out of
// br's window into dst (emptied first), calling decode on each run of whole
// elements the window holds. dst is used as far as its capacity goes; beyond
// that it grows to what has arrived so far, then by doubling, and never past
// the body's own length, so a frame cannot commit more than a small multiple
// of the bytes it has actually delivered.
func readElems[T any](br *bufio.Reader, dst []T, n, size int, decode func(dst []T, src []byte)) ([]T, error) {
	if n%size != 0 {
		return nil, fmt.Errorf("mpi: payload of %d bytes for %d-byte elements", n, size)
	}
	count := n / size
	if dst == nil {
		dst = []T{}
	}
	dst = dst[:0]
	for len(dst) < count {
		if br.Buffered() < size {
			if _, err := br.Peek(size); err != nil {
				return nil, fmt.Errorf("mpi: reading frame body: %w", cutShort(err))
			}
		}
		k := min(count-len(dst), br.Buffered()/size)
		if cap(dst)-len(dst) < k {
			grown := make([]T, len(dst), min(count, max(2*cap(dst), len(dst)+k)))
			copy(grown, dst)
			dst = grown
		}
		src, _ := br.Peek(k * size) // buffered: cannot fail
		decode(dst[len(dst):len(dst)+k], src)
		dst = dst[:len(dst)+k]
		br.Discard(k * size)
	}
	return dst, nil
}
