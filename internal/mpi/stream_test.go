package mpi

import (
	"errors"
	"testing"
)

// TestStreamArrivalOrder: completions arrive in send order per source and
// identify their posted index, source, and payload; Reset re-arms the
// stream for the next exchange without reallocation.
func TestStreamArrivalOrder(t *testing.T) {
	const p = 4
	Run(p, func(c *Comm) {
		const rounds = 3
		const perPeer = 2
		s := NewStream(c, perPeer*(p-1))
		for round := 0; round < rounds; round++ {
			// Post chunk-major: for each chunk, one receive per remote peer.
			type want struct{ src, chunk int }
			wants := make([]want, 0, perPeer*(p-1))
			for chunk := 0; chunk < perPeer; chunk++ {
				for sft := 1; sft < p; sft++ {
					src := (c.Rank() - sft + p) % p
					idx := s.Post(src)
					if idx != len(wants) {
						t.Errorf("rank %d: Post returned %d, want %d", c.Rank(), idx, len(wants))
					}
					wants = append(wants, want{src, chunk})
				}
			}
			// Send chunk-major to every peer: payload encodes (me, chunk).
			for chunk := 0; chunk < perPeer; chunk++ {
				for sft := 1; sft < p; sft++ {
					dst := (c.Rank() + sft) % p
					StreamSend(c, dst, []int{c.Rank(), chunk, round})
				}
			}
			seen := make(map[int]int) // src -> next expected chunk
			for i := 0; i < perPeer*(p-1); i++ {
				idx, src, payload := s.Next()
				w := wants[idx]
				if src != w.src {
					t.Errorf("rank %d: idx %d src %d, want %d", c.Rank(), idx, src, w.src)
				}
				msg := payload.([]int)
				if msg[0] != src {
					t.Errorf("rank %d: payload from %d claims sender %d", c.Rank(), src, msg[0])
				}
				// Non-overtaking: chunk k from src completes the k-th posted
				// receive for src, in arrival order per source.
				if msg[1] != seen[src] {
					t.Errorf("rank %d: src %d delivered chunk %d, want %d", c.Rank(), src, msg[1], seen[src])
				}
				if msg[1] != w.chunk {
					t.Errorf("rank %d: idx %d carries chunk %d, want %d", c.Rank(), idx, msg[1], w.chunk)
				}
				if msg[2] != round {
					t.Errorf("rank %d: round %d message in round %d", c.Rank(), msg[2], round)
				}
				seen[src]++
			}
			if s.Outstanding() != 0 {
				t.Errorf("rank %d: %d outstanding after drain", c.Rank(), s.Outstanding())
			}
			s.Reset()
		}
		c.Barrier()
	})
}

// TestStreamPostMatching pins the posted-receive table the stream is built
// on: a receive posted before its message exists is completed by the
// arrival, receives posted for one source complete in post order whatever
// order the completions are read in, a receive posted against an already
// queued message completes at post, and a posted stream receive does not
// disturb a blocking receive on a user tag.
func TestStreamPostMatching(t *testing.T) {
	t.Run("posted before send", func(t *testing.T) {
		Run(2, func(c *Comm) {
			if c.Rank() == 1 {
				s := NewStream(c, 1)
				s.Post(0) // posted before the message exists
				c.Barrier()
				if _, src, payload := s.Next(); src != 0 || payload.([]int)[0] != 42 {
					t.Errorf("got %v from %d", payload, src)
				}
			} else {
				c.Barrier()
				StreamSend(c, 1, []int{42})
			}
		})
	})
	t.Run("per-source FIFO", func(t *testing.T) {
		Run(2, func(c *Comm) {
			if c.Rank() == 1 {
				s := NewStream(c, 2)
				first, second := s.Post(0), s.Post(0)
				c.Barrier()
				got := map[int]int{}
				for i := 0; i < 2; i++ {
					idx, _, payload := s.Next()
					got[idx] = payload.([]int)[0]
				}
				if got[first] != 1 || got[second] != 2 {
					t.Errorf("post-order matching broken: %v", got)
				}
			} else {
				c.Barrier()
				StreamSend(c, 1, []int{1})
				StreamSend(c, 1, []int{2})
			}
		})
	})
	t.Run("matches a queued message", func(t *testing.T) {
		Run(2, func(c *Comm) {
			if c.Rank() == 0 {
				StreamSend(c, 1, []int{5})
				c.Barrier()
			} else {
				c.Barrier() // message already queued
				s := NewStream(c, 1)
				s.Post(0)
				if len(s.notify) != 1 {
					t.Error("Post against a queued message must complete at post")
				}
				if _, _, payload := s.Next(); payload.([]int)[0] != 5 {
					t.Errorf("got %v", payload)
				}
			}
		})
	})
	t.Run("blocking after posted", func(t *testing.T) {
		Run(2, func(c *Comm) {
			if c.Rank() == 0 {
				Send(c, 1, 1, []int{10})
				StreamSend(c, 1, []int{20})
			} else {
				s := NewStream(c, 1)
				s.Post(0)
				a := Recv[int](c, 0, 1) // blocking recv on a user tag
				_, _, b := s.Next()
				if a[0] != 10 || b.([]int)[0] != 20 {
					t.Errorf("mixed recv broken: %v %v", a, b)
				}
			}
		})
	})
}

// TestStreamResetUndrained: Reset with receives in flight is a programming
// error and must panic rather than corrupt the next exchange.
func TestStreamResetUndrained(t *testing.T) {
	Run(2, func(c *Comm) {
		s := NewStream(c, 1)
		s.Post(1 - c.Rank())
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: Reset with undrained receives did not panic", c.Rank())
				}
			}()
			s.Reset()
		}()
		// Drain properly so both ranks exit cleanly.
		StreamSend(c, 1-c.Rank(), []byte{1})
		s.Next()
	})
}

// TestAlltoallvCountMismatch: inconsistent count tables across ranks must
// surface as a *CountMismatchError from AlltoallvInto — not a panic.
func TestAlltoallvCountMismatch(t *testing.T) {
	Run(2, func(c *Comm) {
		// Both ranks send 1 element to rank 0 and 2 to rank 1.
		sendCounts := []int{1, 2}
		sendDispls := []int{0, 1}
		var recvCounts, recvDispls []int
		if c.Rank() == 0 {
			// Correct would be {1, 1}; rank 0 instead claims 5 from
			// rank 1, which sends only 1.
			recvCounts = []int{1, 5}
			recvDispls = []int{0, 1}
		} else {
			recvCounts = []int{2, 2}
			recvDispls = []int{0, 2}
		}
		data := []float64{10, 20, 30}
		out := make([]float64, 6)
		_, err := AlltoallvInto(c, out, data, sendCounts, sendDispls, recvCounts, recvDispls)
		if c.Rank() == 0 {
			var cm *CountMismatchError
			if !errors.As(err, &cm) {
				t.Fatalf("rank 0: err = %v, want *CountMismatchError", err)
			}
			if cm.Src != 1 || cm.Want != 5 || cm.Got != 1 || cm.Rank != 0 {
				t.Errorf("rank 0: mismatch fields %+v", cm)
			}
		} else if err != nil {
			t.Errorf("rank 1: unexpected error %v", err)
		}
	})
}

// TestAlltoallvWrapperPanics: the non-Into convenience wrappers keep the
// collective contract that inconsistent tables are a programming error.
func TestAlltoallvWrapperPanics(t *testing.T) {
	Run(2, func(c *Comm) {
		defer func() {
			r := recover()
			if c.Rank() == 0 && r == nil {
				t.Errorf("rank 0: Alltoallv with mismatched counts did not panic")
			}
		}()
		recvCounts := []int{1, 1}
		if c.Rank() == 0 {
			recvCounts = []int{1, 4}
		}
		Alltoallv(c, []int{1, 2}, []int{1, 1}, []int{0, 1}, recvCounts, []int{0, 1})
	})
}
