package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// Transport conformance suite: one table of transport runners, one set of
// assertions. Every semantic contract the DNS relies on — communicator
// splitting, the cartesian topology helpers, the alltoallv family, the
// collectives — must hold identically whether ranks are goroutines
// exchanging references (chan) or processes exchanging frames (tcp; here
// exercised in-process over real localhost sockets, the full wire path).
var conformanceTransports = []struct {
	name string
	run  func(size int, fn func(c *Comm))
}{
	{"chan", Run},
	{"tcp", RunTCP},
}

// forEachTransport runs one conformance body under every transport.
func forEachTransport(t *testing.T, sizes []int, body func(t *testing.T, c *Comm)) {
	t.Helper()
	for _, tr := range conformanceTransports {
		for _, size := range sizes {
			t.Run(fmt.Sprintf("%s/P%d", tr.name, size), func(t *testing.T) {
				tr.run(size, func(c *Comm) { body(t, c) })
			})
		}
	}
}

// TestConformanceSplit: Split must form deterministic groups ordered by
// (key, parent rank), identical across transports, with MPI_UNDEFINED
// (negative color) ranks excluded.
func TestConformanceSplit(t *testing.T) {
	forEachTransport(t, []int{4, 6}, func(t *testing.T, c *Comm) {
		// Even/odd split, keys reversing the parent order.
		sub := c.Split(c.Rank()%2, -c.Rank())
		p := c.Size()
		wantSize := (p + 1 - c.Rank()%2) / 2
		if sub.Size() != wantSize {
			t.Errorf("rank %d: split size %d, want %d", c.Rank(), sub.Size(), wantSize)
		}
		// Reversed keys: highest parent rank of the color is sub rank 0.
		wantRank := 0
		for r := c.Rank() + 2; r < p; r += 2 {
			wantRank++
		}
		if sub.Rank() != wantRank {
			t.Errorf("rank %d: split rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// The subcommunicator must actually carry traffic.
		sum := Allreduce(sub, OpSum, []int{c.Rank()})[0]
		want := 0
		for r := c.Rank() % 2; r < p; r += 2 {
			want += r
		}
		if sum != want {
			t.Errorf("rank %d: split allreduce %d, want %d", c.Rank(), sum, want)
		}
		// Undefined color drops out; survivors still agree.
		if c.Rank() == 0 {
			if und := c.Split(-1, 0); und != nil {
				t.Error("negative color returned a communicator")
			}
		} else {
			rest := c.Split(1, c.Rank())
			if rest.Size() != p-1 {
				t.Errorf("rank %d: undefined-split size %d, want %d", c.Rank(), rest.Size(), p-1)
			}
		}
	})
}

// TestConformanceCartSub: CartCreate/CartSub must produce the paper's
// CommA/CommB decomposition — row-major coordinates, sub-communicators
// grouped by the dropped coordinate and ordered by the kept one — on
// both transports.
func TestConformanceCartSub(t *testing.T) {
	forEachTransport(t, []int{6}, func(t *testing.T, c *Comm) {
		cart := c.CartCreate([]int{2, 3})
		co := cart.Coords()
		if want := []int{c.Rank() / 3, c.Rank() % 3}; co[0] != want[0] || co[1] != want[1] {
			t.Errorf("rank %d: coords %v, want %v", c.Rank(), co, want)
		}
		commA := cart.CartSub([]bool{true, false}) // columns: share coord 1
		commB := cart.CartSub([]bool{false, true}) // rows: share coord 0
		if commA.Size() != 2 || commB.Size() != 3 {
			t.Errorf("rank %d: commA size %d commB size %d", c.Rank(), commA.Size(), commB.Size())
		}
		if commA.Rank() != co[0] || commB.Rank() != co[1] {
			t.Errorf("rank %d: sub ranks (%d,%d), want (%d,%d)",
				c.Rank(), commA.Rank(), commB.Rank(), co[0], co[1])
		}
		// Column members share coord 1: gather world ranks along commA.
		ranks := Gather(commA.Comm, 0, []int{c.Rank()})
		if commA.Rank() == 0 {
			for i, r := range ranks {
				if want := i*3 + co[1]; r != want {
					t.Errorf("commA col %d: member %d is world %d, want %d", co[1], i, r, want)
				}
			}
		}
		// And the sub-communicators must carry independent traffic.
		rowSum := Allreduce(commB.Comm, OpSum, []int{co[1]})[0]
		if rowSum != 0+1+2 {
			t.Errorf("rank %d: commB allreduce %d", c.Rank(), rowSum)
		}
	})
}

// TestConformanceAlltoallv: the transpose workhorse with uneven counts,
// in both the blocking and overlapped forms, plus the preplanned Into
// variants' buffer reuse.
func TestConformanceAlltoallv(t *testing.T) {
	forEachTransport(t, []int{1, 4}, func(t *testing.T, c *Comm) {
		p := c.Size()
		// Rank r sends r+1 elements to every peer: uneven tables.
		sendCounts := make([]int, p)
		sendDispls := make([]int, p)
		recvCounts := make([]int, p)
		recvDispls := make([]int, p)
		send := []complex128{}
		for i := 0; i < p; i++ {
			sendCounts[i] = c.Rank() + 1
			sendDispls[i] = i * (c.Rank() + 1)
			recvCounts[i] = i + 1
			if i > 0 {
				recvDispls[i] = recvDispls[i-1] + recvCounts[i-1]
			}
			for k := 0; k < c.Rank()+1; k++ {
				send = append(send, complex(float64(c.Rank()), float64(i)))
			}
		}
		check := func(out []complex128, form string) {
			for i := 0; i < p; i++ {
				for k := 0; k < recvCounts[i]; k++ {
					got := out[recvDispls[i]+k]
					if real(got) != float64(i) || imag(got) != float64(c.Rank()) {
						t.Errorf("%s rank %d: block %d elem %d = %v", form, c.Rank(), i, k, got)
					}
				}
			}
		}
		check(Alltoallv(c, send, sendCounts, sendDispls, recvCounts, recvDispls), "blocking")
		buf := make([]complex128, recvDispls[p-1]+recvCounts[p-1])
		out, err := AlltoallvInto(c, buf, send, sendCounts, sendDispls, recvCounts, recvDispls)
		if err != nil {
			t.Errorf("Into: %v", err)
		}
		if &out[0] != &buf[0] {
			t.Error("Into did not reuse the caller's buffer")
		}
		check(out, "into")
	})
}

// TestConformanceCollectives: Barrier, Bcast, Allreduce (all three ops),
// Gather, Sendrecv.
func TestConformanceCollectives(t *testing.T) {
	forEachTransport(t, []int{1, 5}, func(t *testing.T, c *Comm) {
		p := c.Size()
		c.Barrier()
		got := Bcast(c, p-1, []float64{float64(31 * c.Rank())})
		if want := float64(31 * (p - 1)); got[0] != want {
			t.Errorf("rank %d: bcast %v, want %v", c.Rank(), got[0], want)
		}
		sum := Allreduce(c, OpSum, []int64{int64(c.Rank()), 1})
		if want := int64(p * (p - 1) / 2); sum[0] != want || sum[1] != int64(p) {
			t.Errorf("rank %d: allreduce sum %v", c.Rank(), sum)
		}
		mx := Allreduce(c, OpMax, []float64{float64(-c.Rank())})[0]
		mn := Allreduce(c, OpMin, []float64{float64(-c.Rank())})[0]
		if mx != 0 || mn != float64(-(p-1)) {
			t.Errorf("rank %d: max %v min %v", c.Rank(), mx, mn)
		}
		all := Gather(c, 0, []int{c.Rank() * c.Rank()})
		if c.Rank() == 0 {
			for i, v := range all {
				if v != i*i {
					t.Errorf("gather slot %d = %d", i, v)
				}
			}
		} else if all != nil {
			t.Error("non-root gather returned data")
		}
		if p > 1 {
			dst := (c.Rank() + 1) % p
			src := (c.Rank() - 1 + p) % p
			in := Sendrecv(c, dst, 11, []int{c.Rank()}, src, 11)
			if in[0] != src {
				t.Errorf("sendrecv rank %d got %d, want %d", c.Rank(), in[0], src)
			}
		}
	})
}

// TestConformanceTagMatching: messages match on (source, tag, comm) with
// AnyTag/AnySource wildcards, across communicator boundaries.
func TestConformanceTagMatching(t *testing.T) {
	forEachTransport(t, []int{2}, func(t *testing.T, c *Comm) {
		sub := c.Split(0, c.Rank()) // same membership, distinct comm id
		if c.Rank() == 1 {
			Send(c, 0, 1, []int{100})
			Send(sub, 0, 1, []int{200})
			Send(c, 0, 2, []int{300})
			return
		}
		// Tag selects within the parent comm even though the sub message
		// arrived in between; the sub comm sees only its own.
		if got := Recv[int](c, 1, 2)[0]; got != 300 {
			t.Errorf("tag-2 recv got %d", got)
		}
		if got := Recv[int](sub, 1, AnyTag)[0]; got != 200 {
			t.Errorf("sub recv got %d", got)
		}
		if got := Recv[int](c, AnySource, 1)[0]; got != 100 {
			t.Errorf("tag-1 recv got %d", got)
		}
	})
}

// TestConformanceDeterministicSplitIDs: the derived communicator ids are
// a pure function of the split history, so independent ranks agree on
// them without negotiation — a property the wire transport inherits only
// if no transport state leaks into id derivation.
func TestConformanceDeterministicSplitIDs(t *testing.T) {
	type probe struct {
		rank int
		id   int64
	}
	for _, tr := range conformanceTransports {
		t.Run(tr.name, func(t *testing.T) {
			var mu sync.Mutex
			var probes []probe
			tr.run(4, func(c *Comm) {
				sub := c.Split(c.Rank()%2, c.Rank())
				subsub := sub.Split(0, sub.Rank())
				mu.Lock()
				probes = append(probes, probe{c.Rank(), subsub.id})
				mu.Unlock()
			})
			ids := map[int]int64{}
			for _, p := range probes {
				ids[p.rank%2] = p.id
			}
			for _, p := range probes {
				if ids[p.rank%2] != p.id {
					t.Errorf("rank %d: comm id %d diverges from color peer's %d",
						p.rank, p.id, ids[p.rank%2])
				}
			}
		})
	}
}
