package mpi

import (
	"fmt"
	"time"
	"unsafe"

	"channeldns/internal/telemetry"
)

// sizeofT returns the in-memory size of one element of type T, for the
// telemetry byte accounting.
func sizeofT[T any]() int64 {
	var v T
	return int64(unsafe.Sizeof(v))
}

// Barrier blocks until every rank of the communicator has entered it.
// It uses a dissemination pattern: log2(P) rounds of shifted exchanges.
func (c *Comm) Barrier() {
	sp := c.tel.Begin(telemetry.PhaseCollective)
	p := c.size()
	rounds := int64(0)
	for k := 1; k < p; k *= 2 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		c.send(dst, tagBarrier, []byte{1})
		c.recv(src, tagBarrier)
		rounds++
	}
	sp.End()
	if rounds > 0 {
		c.tel.AddComm(telemetry.CommCollective, rounds, rounds)
	}
}

// bcast is the uninstrumented binomial-tree broadcast shared by Bcast and
// Allreduce; it returns the received buffer and the number of tree sends
// this rank performed (for the caller's comm accounting).
func bcast[T Elem](c *Comm, root int, data []T) (buf []T, sends int64) {
	p := c.size()
	// Rotate so the root is virtual rank 0.
	vr := (c.rank - root + p) % p
	k := 1 // first round in which this rank may send
	if vr == 0 {
		buf = append([]T(nil), data...)
	} else {
		// Parent holds the highest power-of-two bit of vr; this rank joins
		// the tree in the round after receiving.
		for k*2 <= vr {
			k *= 2
		}
		parent := vr - k
		buf = c.recv((parent+root)%p, tagBcast).([]T)
		k *= 2
	}
	for ; vr+k < p; k *= 2 {
		cp := append([]T(nil), buf...)
		c.send((vr+k+root)%p, tagBcast, cp)
		sends++
	}
	return buf, sends
}

// Bcast distributes root's data to every rank over a binomial tree and
// returns each rank's copy.
func Bcast[T Elem](c *Comm, root int, data []T) []T {
	sp := c.tel.Begin(telemetry.PhaseCollective)
	buf, sends := bcast(c, root, data)
	sp.End()
	c.tel.AddComm(telemetry.CommCollective, sends*int64(len(buf))*sizeofT[T](), sends)
	return buf
}

// Op is a reduction operator for Allreduce.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

// Number is the element constraint for reductions: the Elem types with an
// order and a sum.
type Number interface {
	int | int64 | float64
}

// reduceInto folds in into acc. The builtin max and min carry a NaN on
// either side through, where a comparison would drop it.
func reduceInto[T Number](op Op, acc, in []T) {
	for i := range acc {
		switch op {
		case OpSum:
			acc[i] += in[i]
		case OpMax:
			acc[i] = max(acc[i], in[i])
		case OpMin:
			acc[i] = min(acc[i], in[i])
		}
	}
}

// Allreduce combines data element-wise across all ranks and returns the
// result on every rank (reduce-to-zero then broadcast). Rank 0 folds the
// contributions in rank order, whatever order they arrive in, so a float
// sum has the same bits on every run.
func Allreduce[T Number](c *Comm, op Op, data []T) []T {
	sp := c.tel.Begin(telemetry.PhaseCollective)
	sends := int64(0)
	acc := append([]T(nil), data...)
	if c.rank == 0 {
		for i := 1; i < c.size(); i++ {
			reduceInto(op, acc, c.recv(i, tagReduce).([]T))
		}
	} else {
		c.send(0, tagReduce, acc)
		sends++
	}
	out, bsends := bcast(c, 0, acc)
	sends += bsends
	sp.End()
	c.tel.AddComm(telemetry.CommCollective, sends*int64(len(acc))*sizeofT[T](), sends)
	return out
}

// Gather collects equal-length contributions on the root, concatenated in
// rank order. Non-root ranks receive (nil, nil). A contribution whose
// length differs from the root's is a *CountMismatchError on the root,
// which still receives every contribution, so the ranks stay in step.
func Gather[T Elem](c *Comm, root int, data []T) ([]T, error) {
	sp := c.tel.Begin(telemetry.PhaseCollective)
	if c.rank != root {
		cp := append([]T(nil), data...)
		c.send(root, tagGather, cp)
		sp.End()
		c.tel.AddComm(telemetry.CommCollective, int64(len(data))*sizeofT[T](), 1)
		return nil, nil
	}
	out := make([]T, len(data)*c.size())
	copy(out[c.rank*len(data):], data)
	var err error
	for i := 0; i < c.size(); i++ {
		if i == root {
			continue
		}
		in := c.recv(i, tagGather).([]T)
		if err == nil {
			err = checkCount("Gather", c.rank, i, len(data), len(in))
		}
		copy(out[i*len(data):], in)
	}
	sp.End()
	c.tel.AddComm(telemetry.CommCollective, 0, 0)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CountMismatchError reports a collective receive whose payload length
// disagrees with the caller's recvCounts table — the two ranks were called
// with inconsistent count tables. It is returned (not panicked) by the
// Into forms of the alltoallv family so preplanned callers can surface the
// plan inconsistency with context.
type CountMismatchError struct {
	Op   string // collective name, e.g. "Alltoallv"
	Rank int    // receiving rank (within the communicator)
	Src  int    // sending rank (within the communicator)
	Want int    // recvCounts[Src] on the receiver
	Got  int    // elements actually received
}

func (e *CountMismatchError) Error() string {
	return fmt.Sprintf("mpi: %s rank %d expected %d elements from %d, got %d",
		e.Op, e.Rank, e.Want, e.Src, e.Got)
}

// checkCount returns a *CountMismatchError when got elements arrived at
// rank from src where want were expected, and nil otherwise.
func checkCount(op string, rank, src, want, got int) error {
	if got != want {
		return &CountMismatchError{Op: op, Rank: rank, Src: src, Want: want, Got: got}
	}
	return nil
}

// recvTotal returns the receive-buffer length implied by the count and
// displacement tables.
func recvTotal(p int, recvCounts, recvDispls []int) int {
	total := 0
	for i := 0; i < p; i++ {
		if e := recvDispls[i] + recvCounts[i]; e > total {
			total = e
		}
	}
	return total
}

// AlltoallvInto performs the complete exchange with per-peer counts and
// displacements, the general form used by the pencil transposes where pencil
// widths differ by one when the grid does not divide evenly. The result is
// laid out in out by recvDispls: out is the caller's buffer, so the
// preplanned transposes' steady state performs no allocations beyond the
// per-message payload copies the eager-send runtime requires, and a nil (or
// too-short) out is replaced by one of the length max over peers of
// recvDispls[i]+recvCounts[i].
//
// The exchange is scheduled pairwise: in step s, rank r exchanges with
// (r - s mod P) and (r + s mod P), the same linear-shift schedule MPI
// implementations use to avoid hot spots. A *CountMismatchError is returned
// when a peer's payload contradicts recvCounts — inconsistent tables across
// ranks — leaving out partially written. The send buffer is free for reuse
// as soon as the call returns on this rank: each per-peer block is copied
// before it is posted — into the message, or by a transport that
// serializes, into the frame — which is exactly what lets the pencil
// transpose plans keep the paper's 1x communication-buffer discipline.
// Received blocks go back to the transport once copied out.
func AlltoallvInto[T Elem](c *Comm, out, data []T, sendCounts, sendDispls, recvCounts, recvDispls []int) ([]T, error) {
	p := c.size()
	total := recvTotal(p, recvCounts, recvDispls)
	if len(out) < total {
		out = make([]T, total)
	}
	// Self block first (pure copy, no message).
	copy(out[recvDispls[c.rank]:recvDispls[c.rank]+recvCounts[c.rank]],
		data[sendDispls[c.rank]:sendDispls[c.rank]+sendCounts[c.rank]])
	for s := 1; s < p; s++ {
		dst := (c.rank + s) % p
		src := (c.rank - s + p) % p
		blk := data[sendDispls[dst] : sendDispls[dst]+sendCounts[dst]]
		if !c.t.Copies() {
			blk = append([]T(nil), blk...)
		}
		c.send(dst, tagAlltoall, blk)
		var t0 time.Time
		if c.trc != nil {
			t0 = time.Now()
		}
		payload := c.recv(src, tagAlltoall)
		in := payload.([]T)
		if len(in) != recvCounts[src] {
			return out, &CountMismatchError{Op: "Alltoallv", Rank: c.rank, Src: src, Want: recvCounts[src], Got: len(in)}
		}
		if c.trc != nil {
			c.trc.Peer(src, int64(len(in))*sizeofT[T](), t0, time.Now())
		}
		copy(out[recvDispls[src]:], in)
		c.t.Release(c.group[src], payload)
	}
	return out, nil
}
