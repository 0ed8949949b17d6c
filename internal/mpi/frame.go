package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Frames of the TCP transport: [u32 length][i32 src][i64 commID][i32 tag]
// [u8 kind][payload], little-endian, the length counting what follows it.
//
// Who owns the memory. encodeFrame writes the payload once, into a frame from
// the link's free list, and that is the send's eager copy; the frame is the
// writer goroutine's until its socket write returns, which puts it back.
// readFrame decodes a []complex128 body out of the reader's window into a
// slice from the link's receive list. A decoded payload is the receiver's; a
// receiver that has copied it out may hand it back (Transport.Release, which
// only AlltoallvInto calls), and only such slices are decoded into again.

const (
	// frameHeaderLen is the fixed per-frame overhead: the u32 length prefix
	// plus the src/commID/tag/kind header it counts.
	frameHeaderLen = 21
	// wireWindow is the size of a link's bufio reader and writer; memory for
	// a frame body is committed at most that far ahead of its arrival.
	wireWindow = 1 << 16
	// freeListLen bounds a free list, and so what a link holds back however
	// long it runs; freeListMin is the shortest slice worth keeping.
	freeListLen = 8
	freeListMin = 256
)

// freeList is a bounded set of slices kept for reuse.
type freeList[T any] struct {
	mu   sync.Mutex
	bufs [][]T
}

// get takes a slice, emptied, that n elements fill at least half of; nil if
// the list has none.
func (f *freeList[T]) get(n int) []T {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, b := range f.bufs {
		if n <= cap(b) && cap(b) <= 2*n {
			f.bufs = append(f.bufs[:i], f.bufs[i+1:]...)
			return b[:0]
		}
	}
	return nil
}

// put offers b for reuse. A full list drops its oldest slice, so it follows
// the sizes the link currently carries.
func (f *freeList[T]) put(b []T) {
	if cap(b) < freeListMin {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.bufs) == freeListLen {
		f.bufs = append(f.bufs[:0], f.bufs[1:]...)
	}
	f.bufs = append(f.bufs, b)
}

// encodeFrame serializes a message into one wire frame, in a frame from free
// when one fits; a frame made for a bulk payload is made exactly its size.
func encodeFrame(m message, free *freeList[byte]) []byte {
	need := frameHeaderLen + payloadSize(m.payload)
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
	hdr  [frameHeaderLen]byte // here so that reading into it allocates nothing
}

// readFrame reads one frame from br and returns its message and the
// payload's size on the wire. The error is io.EOF, bare, only when the
// stream ends on a frame boundary; a frame cut short, one whose length
// contradicts its kind and one of unknown kind are errors too. Memory for the
// body is committed as its bytes arrive, never on the word of the length
// field.
func readFrame(br *bufio.Reader, bufs *recvBufs) (m message, payloadLen int, err error) {
	hdr := bufs.hdr[:]
	if _, err = io.ReadFull(br, hdr[:4]); err != nil {
		if err != io.EOF {
			err = fmt.Errorf("mpi: reading frame length: %w", err)
		}
		return m, 0, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr))
	if n < frameHeaderLen-4 {
		return m, 0, fmt.Errorf("mpi: frame of %d bytes", n)
	}
	if _, err = io.ReadFull(br, hdr[4:]); err != nil {
		return m, 0, fmt.Errorf("mpi: reading frame header: %w", cutShort(err))
	}
	m.src = int(int32(binary.LittleEndian.Uint32(hdr[4:])))
	m.commID = int64(binary.LittleEndian.Uint64(hdr[8:]))
	m.tag = int(int32(binary.LittleEndian.Uint32(hdr[16:])))
	payloadLen = int(n - (frameHeaderLen - 4))
	switch kind := wireKind(hdr[frameHeaderLen-1]); kind {
	case wireComplex128:
		m.payload, err = readElems(br, bufs.c128.get(payloadLen/16), payloadLen, 16, decodeComplex128)
	case wireFloat64:
		m.payload, err = readElems(br, nil, payloadLen, 8, decodeFloat64)
	case wireBytes, wireInt, wireInt64, wireString, wireSplit, wireGob:
		var body []byte // control traffic: collected whole, then copied out of
		if body, err = readElems(br, body, payloadLen, 1, func(dst, src []byte) { copy(dst, src) }); err == nil {
			m.payload, err = decodePayload(kind, body)
		}
	default:
		err = fmt.Errorf("mpi: unknown wire kind %d", kind)
	}
	return m, payloadLen, err
}

// cutShort makes the io.EOF of a stream that ended inside a frame an
// io.ErrUnexpectedEOF: only an end on a frame boundary is a clean close.
func cutShort(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readElems reads a body of n bytes, elements of size bytes each, out of br's
// window into dst (emptied first), decode taking each run of whole elements
// the window holds. Past dst's capacity the slice grows to what has arrived,
// then by doubling, never beyond the body's own length.
func readElems[T any](br *bufio.Reader, dst []T, n, size int, decode func(dst []T, src []byte)) ([]T, error) {
	if n%size != 0 {
		return nil, fmt.Errorf("mpi: payload of %d bytes for %d-byte elements", n, size)
	}
	count := n / size
	if dst == nil {
		dst = []T{} // an empty body decodes to an empty slice, not a nil one
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
