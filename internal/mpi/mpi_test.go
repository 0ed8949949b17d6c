package mpi

import (
	"sync"
	"testing"
)

func TestSendRecvBasic(t *testing.T) {
	Run(2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			Send(c, 1, 5, []float64{1, 2, 3})
		case 1:
			got := Recv[float64](c, 0, 5)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("recv got %v", got)
			}
		}
	})
}

func TestSendBufferReuseSafe(t *testing.T) {
	// Eager semantics: mutating the send buffer after Send must not affect
	// the delivered message.
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []int{42}
			Send(c, 1, 0, buf)
			buf[0] = -1
			Send(c, 1, 1, buf)
		} else {
			a := Recv[int](c, 0, 0)
			b := Recv[int](c, 0, 1)
			if a[0] != 42 || b[0] != -1 {
				t.Errorf("got %v %v", a, b)
			}
		}
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 1, []int{1})
			Send(c, 1, 2, []int{2})
		} else {
			// Receive in the reverse order of sending.
			b := Recv[int](c, 0, 2)
			a := Recv[int](c, 0, 1)
			if a[0] != 1 || b[0] != 2 {
				t.Errorf("tag matching broken: %v %v", a, b)
			}
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				Send(c, 1, 0, []int{i})
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := Recv[int](c, 0, 0); got[0] != i {
					t.Errorf("message %d arrived as %d", i, got[0])
				}
			}
		}
	})
}

func TestSendrecvRing(t *testing.T) {
	const p = 5
	Run(p, func(c *Comm) {
		dst := (c.Rank() + 1) % p
		src := (c.Rank() - 1 + p) % p
		got := Sendrecv(c, dst, 3, []int{c.Rank()}, src, 3)
		if got[0] != src {
			t.Errorf("rank %d got %d want %d", c.Rank(), got[0], src)
		}
	})
}

func TestBarrier(t *testing.T) {
	const p = 7
	var mu sync.Mutex
	phase := make(map[int]int)
	Run(p, func(c *Comm) {
		for it := 0; it < 3; it++ {
			mu.Lock()
			phase[c.Rank()] = it
			// All ranks at the barrier must be within one phase of each other
			// can't be asserted without the barrier; after it, all equal.
			mu.Unlock()
			c.Barrier()
			mu.Lock()
			for r, ph := range phase {
				if ph < it {
					t.Errorf("rank %d passed barrier while rank %d in phase %d < %d", c.Rank(), r, ph, it)
				}
			}
			mu.Unlock()
			c.Barrier()
		}
	})
}

func TestBcastVariousRootsAndSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
		for root := 0; root < p; root += max(1, p/3) {
			Run(p, func(c *Comm) {
				var data []int
				if c.Rank() == root {
					data = []int{root * 100, 7}
				}
				got := Bcast(c, root, data)
				if len(got) != 2 || got[0] != root*100 || got[1] != 7 {
					t.Errorf("p=%d root=%d rank=%d: got %v", p, root, c.Rank(), got)
				}
			})
		}
	}
}

func TestAllreduce(t *testing.T) {
	const p = 6
	Run(p, func(c *Comm) {
		sum := Allreduce(c, OpSum, []float64{float64(c.Rank()), 1})
		if sum[0] != 15 || sum[1] != 6 {
			t.Errorf("sum got %v", sum)
		}
		mx := Allreduce(c, OpMax, []float64{float64(c.Rank())})
		if mx[0] != 5 {
			t.Errorf("max got %v", mx)
		}
		mn := Allreduce(c, OpMin, []float64{float64(c.Rank() + 3)})
		if mn[0] != 3 {
			t.Errorf("min got %v", mn)
		}
	})
}

func TestGather(t *testing.T) {
	const p = 4
	Run(p, func(c *Comm) {
		out, err := Gather(c, 2, []int{c.Rank() * 10, c.Rank()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if c.Rank() == 2 {
			want := []int{0, 0, 10, 1, 20, 2, 30, 3}
			for i := range want {
				if out[i] != want[i] {
					t.Errorf("gather[%d] = %d want %d", i, out[i], want[i])
				}
			}
		} else if out != nil {
			t.Errorf("non-root got %v", out)
		}
	})
}

func TestAlltoall(t *testing.T) {
	const p = 4
	Run(p, func(c *Comm) {
		// data[i] = 100*me + i: after exchange, slot i holds 100*i + me.
		data := make([]int, p)
		for i := range data {
			data[i] = 100*c.Rank() + i
		}
		out := Alltoall(c, data, 1)
		for i := 0; i < p; i++ {
			if out[i] != 100*i+c.Rank() {
				t.Errorf("rank %d slot %d: got %d want %d", c.Rank(), i, out[i], 100*i+c.Rank())
			}
		}
	})
}

func TestAlltoallvUneven(t *testing.T) {
	const p = 3
	Run(p, func(c *Comm) {
		me := c.Rank()
		// Rank r sends r+1 copies of value 10*r+dst to each dst.
		sendCounts := make([]int, p)
		sendDispls := make([]int, p)
		var data []int
		for dst := 0; dst < p; dst++ {
			sendDispls[dst] = len(data)
			sendCounts[dst] = me + 1
			for k := 0; k < me+1; k++ {
				data = append(data, 10*me+dst)
			}
		}
		recvCounts := make([]int, p)
		recvDispls := make([]int, p)
		off := 0
		for src := 0; src < p; src++ {
			recvDispls[src] = off
			recvCounts[src] = src + 1
			off += src + 1
		}
		out := Alltoallv(c, data, sendCounts, sendDispls, recvCounts, recvDispls)
		for src := 0; src < p; src++ {
			for k := 0; k < src+1; k++ {
				if got := out[recvDispls[src]+k]; got != 10*src+me {
					t.Errorf("rank %d from %d: got %d want %d", me, src, got, 10*src+me)
				}
			}
		}
	})
}

func TestSplitRowsAndColumns(t *testing.T) {
	// 6 ranks -> 2x3 grid by hand using Split.
	Run(6, func(c *Comm) {
		row := c.Rank() / 3
		col := c.Rank() % 3
		rowComm := c.Split(row, col)
		if rowComm.Size() != 3 || rowComm.Rank() != col {
			t.Errorf("rank %d: row comm size %d rank %d", c.Rank(), rowComm.Size(), rowComm.Rank())
		}
		colComm := c.Split(10+col, row)
		if colComm.Size() != 2 || colComm.Rank() != row {
			t.Errorf("rank %d: col comm size %d rank %d", c.Rank(), colComm.Size(), colComm.Rank())
		}
		// Communicators are independent message spaces.
		sum := Allreduce(rowComm, OpSum, []float64{float64(c.Rank())})
		want := float64(3*row*3 + 3) // rows {0,1,2}->3, {3,4,5}->12
		if row == 1 {
			want = 12
		} else {
			want = 3
		}
		if sum[0] != want {
			t.Errorf("rank %d row sum %g want %g", c.Rank(), sum[0], want)
		}
	})
}

func TestSplitUndefined(t *testing.T) {
	Run(4, func(c *Comm) {
		color := -1
		if c.Rank()%2 == 0 {
			color = 0
		}
		sub := c.Split(color, c.Rank())
		if c.Rank()%2 == 0 {
			if sub == nil || sub.Size() != 2 {
				t.Errorf("rank %d: expected sub of size 2", c.Rank())
			}
		} else if sub != nil {
			t.Errorf("rank %d: expected nil comm", c.Rank())
		}
	})
}

func TestCartCreateAndSub(t *testing.T) {
	// The paper's Figure 4 setup: 128 tasks as an 8x16 grid; CommA is the
	// row (16 ranks), CommB the column (8 ranks).
	Run(128, func(c *Comm) {
		cart := c.CartCreate([]int{8, 16})
		co := cart.Coords()
		if got := cart.CoordsToRank(co); got != c.Rank() {
			t.Errorf("coords roundtrip: %d != %d", got, c.Rank())
		}
		commA := cart.CartSub([]bool{false, true})
		commB := cart.CartSub([]bool{true, false})
		if commA.Size() != 16 || commB.Size() != 8 {
			t.Errorf("sub sizes %d %d", commA.Size(), commB.Size())
		}
		if commA.Rank() != co[1] || commB.Rank() != co[0] {
			t.Errorf("sub ranks %d %d coords %v", commA.Rank(), commB.Rank(), co)
		}
		// Row members share coord 0; verify via allreduce of coord 0.
		mx := Allreduce(commA.Comm, OpMax, []int64{int64(co[0])})
		mn := Allreduce(commA.Comm, OpMin, []int64{int64(co[0])})
		if mx[0] != int64(co[0]) || mn[0] != int64(co[0]) {
			t.Errorf("CommA mixes rows: %v %v vs %d", mx, mn, co[0])
		}
	})
}

func TestAlltoallOnSubcommunicators(t *testing.T) {
	Run(12, func(c *Comm) {
		cart := c.CartCreate([]int{3, 4})
		commA := cart.CartSub([]bool{false, true}) // 4 ranks per row
		data := make([]int, commA.Size())
		for i := range data {
			data[i] = 1000*cart.Coords()[0] + 10*commA.Rank() + i
		}
		out := Alltoall(commA.Comm, data, 1)
		for i := range out {
			want := 1000*cart.Coords()[0] + 10*i + commA.Rank()
			if out[i] != want {
				t.Errorf("row %d rank %d slot %d: got %d want %d",
					cart.Coords()[0], commA.Rank(), i, out[i], want)
			}
		}
	})
}

func BenchmarkAlltoall64Ranks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(64, func(c *Comm) {
			data := make([]complex128, 64*32)
			Alltoall(c, data, 32)
		})
	}
}
