package trace

import (
	"sync"
	"testing"
	"time"

	"channeldns/internal/telemetry"
)

// at returns an instant offset from a trace's epoch, for deterministic
// synthetic events.
func at(tr *Trace, d time.Duration) time.Time { return tr.Epoch().Add(d) }

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	now := time.Now()
	r.TraceSpan(telemetry.PhaseNonlinear, now, now)
	r.Exchange(telemetry.CommYtoZ, 64, now, now)
	r.Peer(1, 64, now, now)
	r.BeginStep(3)
	r.SetStage(1)
	r.EndStep(now, now)
	if r.Recorded() != 0 || r.Dropped() != 0 || r.Events() != nil || r.Rank() != 0 {
		t.Error("nil recorder must be inert")
	}
}

func TestRecordDecodeRoundTrip(t *testing.T) {
	tr := New(16)
	r := tr.Rank(2)
	r.BeginStep(7)
	r.SetStage(1)
	r.TraceSpan(telemetry.PhaseFFTForward, at(tr, 10*time.Microsecond), at(tr, 30*time.Microsecond))
	r.Exchange(telemetry.CommZtoX, 4096, at(tr, 40*time.Microsecond), at(tr, 50*time.Microsecond))
	r.Peer(3, 512, at(tr, 41*time.Microsecond), at(tr, 44*time.Microsecond))
	r.SetStage(-1)
	r.EndStep(at(tr, 0), at(tr, 60*time.Microsecond))

	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	// Sorted by start: step (starts at 0), phase, exchange, peer — but
	// exchange starts at 40us and peer at 41us.
	if evs[0].Kind != KindStep || evs[0].Step != 7 || evs[0].Stage != -1 {
		t.Errorf("step event decoded as %+v", evs[0])
	}
	if evs[0].Dur != 60*time.Microsecond {
		t.Errorf("step dur = %v", evs[0].Dur)
	}
	ph := evs[1]
	if ph.Kind != KindPhase || ph.Phase != telemetry.PhaseFFTForward ||
		ph.Stage != 1 || ph.Step != 7 || ph.Peer != -1 {
		t.Errorf("phase event decoded as %+v", ph)
	}
	if ph.Start != 10*time.Microsecond || ph.Dur != 20*time.Microsecond {
		t.Errorf("phase timing %v + %v", ph.Start, ph.Dur)
	}
	ex := evs[2]
	if ex.Kind != KindExchange || ex.Op != telemetry.CommZtoX || ex.Bytes != 4096 {
		t.Errorf("exchange event decoded as %+v", ex)
	}
	pe := evs[3]
	if pe.Kind != KindPeer || pe.Peer != 3 || pe.Bytes != 512 {
		t.Errorf("peer event decoded as %+v", pe)
	}
	if r.Recorded() != 4 || r.Dropped() != 0 {
		t.Errorf("recorded=%d dropped=%d", r.Recorded(), r.Dropped())
	}
}

func TestRingWrapKeepsNewestAndCountsDropped(t *testing.T) {
	tr := New(8)
	r := tr.Rank(0)
	for i := 0; i < 20; i++ {
		r.TraceSpan(telemetry.PhaseNonlinear,
			at(tr, time.Duration(i)*time.Microsecond),
			at(tr, time.Duration(i+1)*time.Microsecond))
	}
	if got := r.Dropped(); got != 12 {
		t.Errorf("Dropped = %d, want 12", got)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("got %d resident events, want 8", len(evs))
	}
	// Flight-recorder semantics: the newest 8 survive, oldest first.
	for i, ev := range evs {
		want := time.Duration(12+i) * time.Microsecond
		if ev.Start != want {
			t.Errorf("event %d start %v, want %v", i, ev.Start, want)
		}
	}
	if tr.Dropped() != 12 {
		t.Errorf("Trace.Dropped = %d", tr.Dropped())
	}
}

func TestDefaultCapacityAndRankReuse(t *testing.T) {
	tr := New(0)
	if tr.capacity != DefaultCapacity {
		t.Fatalf("capacity %d", tr.capacity)
	}
	if tr.Rank(3) != tr.Rank(3) {
		t.Error("Rank must return the same recorder per rank")
	}
	if tr.Ranks() != 4 {
		t.Errorf("Ranks = %d, want 4 (slots 0..3)", tr.Ranks())
	}
	ev := tr.Events()
	if len(ev) != 4 || ev[0] != nil || ev[3] == nil {
		t.Error("Events must mirror rank slots: nil gaps, empty non-nil for registered")
	}
}

// TestRecordAllocFree: after the ring exists, recording an event performs
// zero heap allocations — the bound the ISSUE's "allocations bounded by
// ring capacity" acceptance rests on.
func TestRecordAllocFree(t *testing.T) {
	if telemetry.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tr := New(64)
	r := tr.Rank(0)
	t0, t1 := at(tr, 0), at(tr, time.Microsecond)
	allocs := testing.AllocsPerRun(100, func() {
		r.TraceSpan(telemetry.PhaseNonlinear, t0, t1)
		r.Exchange(telemetry.CommYtoZ, 128, t0, t1)
		r.Peer(1, 128, t0, t1)
		r.EndStep(t0, t1)
	})
	if allocs != 0 {
		t.Errorf("recording allocates %v objects per 4 events, want 0", allocs)
	}
}

// TestConcurrentRecordSnapshot drives writers and snapshot readers at the
// same time (the /trace endpoint against a live run). Under -race this is
// the seqlock's cleanliness proof; in any mode decoded events must be
// internally consistent, never torn.
func TestConcurrentRecordSnapshot(t *testing.T) {
	tr := New(32)
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		r := tr.Rank(w)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := time.Duration(rank+1) * time.Microsecond
				s := time.Duration(i) * time.Microsecond
				r.TraceSpan(telemetry.PhaseTransposeAB, at(tr, s), at(tr, s+d))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		for rank, evs := range tr.Events() {
			for _, ev := range evs {
				if ev.Kind != KindPhase || ev.Phase != telemetry.PhaseTransposeAB {
					t.Fatalf("rank %d: torn event %+v", rank, ev)
				}
				// Writer invariant: dur encodes the rank, start the index.
				if ev.Dur != time.Duration(rank+1)*time.Microsecond {
					t.Fatalf("rank %d: event carries dur %v — cross-rank tear", rank, ev.Dur)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestEventsSortedByStart(t *testing.T) {
	tr := New(16)
	r := tr.Rank(0)
	// Recorded at end time, so a long span lands after short ones that
	// started later; the snapshot must come back in start order.
	r.TraceSpan(telemetry.PhaseFFTForward, at(tr, 5*time.Microsecond), at(tr, 6*time.Microsecond))
	r.TraceSpan(telemetry.PhaseNonlinear, at(tr, 1*time.Microsecond), at(tr, 9*time.Microsecond))
	evs := r.Events()
	if len(evs) != 2 || evs[0].Phase != telemetry.PhaseNonlinear {
		t.Fatalf("events not start-ordered: %+v", evs)
	}
}
