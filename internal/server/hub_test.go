package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"channeldns/internal/telemetry"
)

// follow reads h as the SSE handler does — from cursor 0 through Wait until
// the stream closes or a batch skips past the cursor — and returns the
// events it read and whether it fell behind.
func follow(h *Hub) (events []Event, dropped bool) {
	var cursor uint64
	for {
		batch, open := h.Wait(context.Background(), cursor)
		if missed(cursor, batch) {
			return events, true
		}
		for _, ev := range batch {
			events = append(events, ev)
			cursor = ev.Seq
		}
		if !open {
			return events, false
		}
	}
}

// TestHubBackpressure: a reader that stops calling Wait cannot slow
// Publish, a reader that keeps up sees every event, and the stalled reader,
// once more than the ring behind, finds its next batch past its cursor.
func TestHubBackpressure(t *testing.T) {
	h := NewHub()
	h.Publish(EventStatus, map[string]int{"i": 0})
	first, _ := h.Wait(context.Background(), 0)
	if len(first) != 1 {
		t.Fatalf("stalled reader's first batch has %d events, want 1", len(first))
	}
	stalled := first[0].Seq // and it reads no more

	var seen atomic.Uint64
	healthy := make(chan []uint64, 1)
	go func() {
		var seqs []uint64
		var cursor uint64
		for {
			batch, open := h.Wait(context.Background(), cursor)
			for _, ev := range batch {
				seqs = append(seqs, ev.Seq)
				cursor = ev.Seq
			}
			seen.Store(cursor)
			if !open {
				healthy <- seqs
				return
			}
		}
	}()

	const total = ringCap + 44
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < total; i++ {
			h.Publish(EventStatus, map[string]int{"i": i})
			// Let the healthy reader keep pace, so only the stalled one
			// ever falls behind the ring.
			for seen.Load() < uint64(i+1) {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a stalled reader")
	}

	batch, open := h.Wait(context.Background(), stalled)
	if !open || !missed(stalled, batch) {
		t.Fatalf("reader %d events behind a %d-event ring: no gap in its next batch (%d events, open %v)",
			total-stalled, ringCap, len(batch), open)
	}
	if want := uint64(total - ringCap + 1); batch[0].Seq != want || len(batch) != ringCap {
		t.Errorf("stalled reader's batch: %d events from seq %d, want the ring: %d from %d",
			len(batch), batch[0].Seq, ringCap, want)
	}

	h.Close()
	seqs := <-healthy
	if len(seqs) != total {
		t.Fatalf("healthy reader saw %d of %d events", len(seqs), total)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("healthy reader's event %d has seq %d, want %d", i, seq, i+1)
		}
	}
}

// TestHubReplaySince: a late reader replays the ring from cursor 0, and
// Since/Wait serve both stream endpoints.
func TestHubReplaySince(t *testing.T) {
	h := NewHub()
	const published = ringCap + 2 // past the ring's capacity
	for i := 0; i < published; i++ {
		h.Publish(EventStatus, i)
	}
	replay, open := h.Wait(context.Background(), 0)
	if !open || len(replay) != ringCap {
		t.Fatalf("replay carries %d events (open %v), want ring capacity %d", len(replay), open, ringCap)
	}
	if replay[0].Seq != 3 || replay[ringCap-1].Seq != published {
		t.Errorf("replay seqs [%d..%d], want [3..%d]", replay[0].Seq, replay[ringCap-1].Seq, published)
	}
	if missed(0, replay) {
		t.Error("a late joiner's replay counts as falling behind")
	}

	evs, open := h.Since(published - 2)
	if !open || len(evs) != 2 || evs[0].Seq != published-1 {
		t.Errorf("Since(%d): %d events open=%v, want 2 true", published-2, len(evs), open)
	}

	// Wait returns as soon as something newer than `after` lands.
	got := make(chan []Event, 1)
	go func() {
		evs, _ := h.Wait(context.Background(), published)
		got <- evs
	}()
	time.Sleep(10 * time.Millisecond)
	h.Publish(EventStatus, published)
	select {
	case evs := <-got:
		if len(evs) != 1 || evs[0].Seq != published+1 {
			t.Errorf("Wait(%d) returned %+v, want the single seq-%d event", published, evs, published+1)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on publish")
	}

	// Wait honors its context when nothing arrives.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if evs, _ := h.Wait(ctx, 1000); len(evs) != 0 {
		t.Errorf("Wait past the head returned %d events", len(evs))
	}

	h.Close()
	h.Publish(EventStatus, "late")
	if evs, open := h.Wait(context.Background(), published+1); open || len(evs) != 0 {
		t.Errorf("Wait at the head after Close: %d events open=%v, want 0 false", len(evs), open)
	}
	if evs, open := h.Since(0); open || len(evs) != ringCap {
		t.Errorf("Since(0) after Close: %d events open=%v, want the ring and false", len(evs), open)
	}
}

// stallWriter is an SSE client whose connection stops taking bytes: every
// Write blocks until release is closed.
type stallWriter struct {
	header  http.Header
	buf     bytes.Buffer
	once    sync.Once
	writing chan struct{} // closed at the first Write
	release chan struct{}
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}
func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.release
	return w.buf.Write(p)
}

// TestSSEDropsStalledClient: an SSE client whose connection blocks while
// more than the ring's worth of events is published holds up neither the
// publisher nor anyone else; once it is released, its stream says
// "dropped" and closes.
func TestSSEDropsStalledClient(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	job := m.newJob(0, smallSpec(1), Status{ID: RunID(0), State: StatePaused})
	m.mu.Lock()
	m.jobs[0] = job
	m.mu.Unlock()
	job.Hub.Publish(EventStatus, 0)

	w := &stallWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		NewAPI(m).Routes().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+RunID(0)+"/stream", nil))
	}()
	<-w.writing // the handler is stuck writing the replay of seq 1

	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 1; i <= ringCap+10; i++ {
			job.Hub.Publish(EventStatus, i)
		}
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a stalled SSE client")
	}
	close(w.release)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("the stream stayed open after its client fell behind the ring")
	}
	body := w.buf.String()
	if !strings.HasSuffix(body, "event: dropped\ndata: {\"reason\":\"slow consumer\"}\n\n") {
		t.Errorf("stream does not end with the dropped marker:\n%s", body)
	}
	if n := strings.Count(body, "\nid: "); n != 1 || !strings.Contains(body, "\nid: 1\n") {
		t.Errorf("stream carried %d events, want only seq 1 before the drop:\n%s", n, body)
	}
}

// BenchmarkStepWatchers pins the cost of a full service-loop iteration —
// one solver step plus the between-steps publish — as the reader count
// grows. The step dominates; fan-out must stay noise.
func BenchmarkStepWatchers(b *testing.B) {
	for _, watchers := range []int{0, 10, 100} {
		b.Run(fmt.Sprintf("watchers=%d", watchers), func(b *testing.B) {
			wl, reg, cleanup := benchSolver(b)
			defer cleanup()
			h := NewHub()
			var readers sync.WaitGroup
			for i := 0; i < watchers; i++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					follow(h)
				}()
			}
			prev := reg.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wl.StepOnce()
				h.Publish(EventStatus, Status{Step: wl.CurrentStep(), Time: wl.CurrentTime()})
				cur := reg.Snapshot()
				if d := telemetry.DeltaSnapshot(&prev, &cur); !d.Empty() {
					h.Publish(EventTelemetry, d)
				}
				prev = cur
			}
			b.StopTimer()
			h.Close()
			readers.Wait()
		})
	}
}
