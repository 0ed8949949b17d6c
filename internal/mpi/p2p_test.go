package mpi

import "fmt"

// The point-to-point operations and the allocating exchanges the tests
// drive the runtime with. The DNS itself exchanges through AlltoallvInto,
// Stream and the collectives.

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

// Alltoall performs the complete exchange: rank r's block i (of blockLen
// elements) is delivered to rank i's slot r. This is the communication
// pattern at the heart of the global transposes (paper §4.3).
func Alltoall[T Elem](c *Comm, data []T, blockLen int) []T {
	p := c.size()
	if len(data) != p*blockLen {
		panic(fmt.Sprintf("mpi: Alltoall data length %d != size %d * block %d", len(data), p, blockLen))
	}
	counts := make([]int, p)
	displs := make([]int, p)
	for i := range counts {
		counts[i] = blockLen
		displs[i] = i * blockLen
	}
	return Alltoallv(c, data, counts, displs, counts, displs)
}

// Alltoallv is AlltoallvInto into a fresh buffer; a count mismatch panics.
func Alltoallv[T Elem](c *Comm, data []T, sendCounts, sendDispls, recvCounts, recvDispls []int) []T {
	out, err := AlltoallvInto(c, nil, data, sendCounts, sendDispls, recvCounts, recvDispls)
	if err != nil {
		panic(err)
	}
	return out
}
