package mpi

import "time"

// Cross-rank clock alignment. On the TCP transport every rank is its own
// OS process with its own monotonic clock epoch, so per-rank trace
// timestamps cannot be laid on one timeline without an offset estimate.
// SyncClocks runs the classic NTP-style ping-pong against rank 0: the
// client stamps t1, rank 0 stamps t2 on receipt and echoes it, the client
// stamps t3 on return. Assuming the symmetric-path model, rank 0's clock
// read t2 happened at local time t1 + RTT/2, so
//
//	offset = t2 - (t1 + RTT/2)      (add offset to local time to get
//	                                 rank 0's timeline)
//
// with error bounded by RTT/2: wherever inside the round trip t2 was
// actually taken, it cannot be further than that from the midpoint. Over
// several rounds the minimum-RTT sample is kept — the round least
// polluted by queueing — shrinking both the error bound and the bias.
//
// Both SyncClocks and GatherHeartbeat are deliberately uninstrumented
// (no telemetry spans or comm credits): they are the observability
// plane's own traffic, and counting it would perturb the comm tables the
// plane exists to report.

// ClockSync is a rank's estimated clock offset relative to rank 0.
type ClockSync struct {
	// OffsetNs added to this rank's wall-clock nanoseconds yields rank 0's
	// timeline. Zero on rank 0 by construction.
	OffsetNs int64
	// ErrorNs bounds the estimate: half the round-trip time of the best
	// sampling round.
	ErrorNs int64
}

// SyncClocks estimates every rank's clock offset against rank 0 over the
// given number of ping-pong rounds (minimum 1). It is a collective: every
// rank of the communicator must call it. Rank 0 serves echoes in whatever
// order the pings arrive, so the cost is one RTT per round per rank,
// serialized only through rank 0's mailbox.
func SyncClocks(c *Comm, rounds int) ClockSync {
	if rounds < 1 {
		rounds = 1
	}
	if c.size() == 1 {
		return ClockSync{}
	}
	if c.rank == 0 {
		// Serve (P-1)*rounds echoes: each ping carries the sender's comm
		// rank (sends under one tag from many ranks may interleave; the
		// payload routes the reply).
		for i := 0; i < (c.size()-1)*rounds; i++ {
			ping := c.recv(AnySource, tagClock).([]int64)
			c.send(int(ping[0]), tagClock, []int64{time.Now().UnixNano()})
		}
		return ClockSync{}
	}
	best := ClockSync{ErrorNs: 1<<63 - 1}
	me := []int64{int64(c.rank)}
	for i := 0; i < rounds; i++ {
		t1 := time.Now()
		c.send(0, tagClock, me)
		t2 := c.recv(0, tagClock).([]int64)[0]
		rtt := time.Since(t1)
		if half := int64(rtt) / 2; half < best.ErrorNs {
			best = ClockSync{OffsetNs: t2 - (t1.UnixNano() + half), ErrorNs: half}
		}
	}
	return best
}

// GatherHeartbeat is Gather for the observability plane — the one
// exchange by which rank 0 folds its world (internal/run's Fold): every
// rank contributes a fixed-shape []int64 (its telemetry, wire and trace
// dumps) on a reserved tag, and the root returns the concatenated
// payloads plus its own receive timestamp per rank — the "last heard"
// input to staleness detection. Non-root ranks return
// (nil, nil, nil). All payloads must have equal length, like Gather: a
// payload of another length is a *CountMismatchError on the root.
func GatherHeartbeat(c *Comm, root int, data []int64) (world []int64, arrivalUnixNs []int64, err error) {
	if c.rank != root {
		cp := append([]int64(nil), data...)
		c.send(root, tagHeartbeat, cp)
		return nil, nil, nil
	}
	world = make([]int64, len(data)*c.size())
	arrivalUnixNs = make([]int64, c.size())
	copy(world[root*len(data):], data)
	arrivalUnixNs[root] = time.Now().UnixNano()
	for i := 0; i < c.size(); i++ {
		if i == root {
			continue
		}
		in := c.recv(i, tagHeartbeat).([]int64)
		arrivalUnixNs[i] = time.Now().UnixNano()
		if err == nil {
			err = checkCount("GatherHeartbeat", c.rank, i, len(data), len(in))
		}
		copy(world[i*len(data):], in)
	}
	if err != nil {
		return nil, nil, err
	}
	return world, arrivalUnixNs, nil
}
