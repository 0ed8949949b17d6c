package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"channeldns/internal/telemetry"
)

// restoreWorld restores the recorder of every trace but the first into
// the first, as rank 0 of a -transport=tcp run does with the gathered
// dumps, and returns the first.
func restoreWorld(t *testing.T, traces []*Trace) *Trace {
	t.Helper()
	for r := 1; r < len(traces); r++ {
		if err := traces[0].Restore(r, traces[r].Rank(r).Dump()); err != nil {
			t.Fatal(err)
		}
	}
	return traces[0]
}

// flowArrows counts the arrows of a Chrome file: each has one "s" event.
func flowArrows(file []byte) int { return bytes.Count(file, []byte(`"ph": "s"`)) }

// TestDumpRestoreRoundTrip: Restore must invert Dump — events, ring wrap
// and the clock error bound survive the trip, and the clock offset lands
// the events where the remote epoch plus offset puts them.
func TestDumpRestoreRoundTrip(t *testing.T) {
	remote := New(4)
	remote.epoch = time.Unix(0, 5_000_000)
	remote.SetClockSync(1234, 56)
	rec := remote.Rank(2)
	ep := remote.Epoch()
	rec.BeginStep(7)
	rec.SetStage(1)
	rec.TraceSpan(telemetry.PhaseNonlinear, ep.Add(10*time.Microsecond), ep.Add(30*time.Microsecond))
	rec.Exchange(telemetry.CommYtoZ, 4096, ep.Add(30*time.Microsecond), ep.Add(40*time.Microsecond))
	rec.Exchange(telemetry.CommZtoX, 512, ep.Add(31*time.Microsecond), ep.Add(39*time.Microsecond))
	rec.Peer(3, 1024, ep.Add(32*time.Microsecond), ep.Add(38*time.Microsecond))
	rec.SetStage(-1)
	rec.EndStep(ep.Add(10*time.Microsecond), ep.Add(50*time.Microsecond))

	d := rec.Dump()
	if len(d) != remote.DumpLen() {
		t.Fatalf("dump of %d values, DumpLen %d", len(d), remote.DumpLen())
	}
	// On a trace whose epoch is the remote's plus its offset, every event
	// lands at its own start.
	local := New(4)
	local.epoch = time.Unix(0, 5_001_234)
	if err := local.Restore(2, d); err != nil {
		t.Fatal(err)
	}
	got := local.Rank(2)
	if !reflect.DeepEqual(got.Events(), rec.Events()) {
		t.Errorf("restored events\n%+v\nwant\n%+v", got.Events(), rec.Events())
	}
	if got.Recorded() != 5 || got.Dropped() != 1 || local.Dropped() != 1 {
		t.Errorf("restored %d recorded, %d dropped; want 5, 1", got.Recorded(), got.Dropped())
	}
	if got.ClockError() != 56 {
		t.Errorf("restored clock error %v, want 56ns", got.ClockError())
	}
	if rec.ClockError() != 0 || local.Rank(0).ClockError() != 0 {
		t.Error("a rank recorded in process carries a clock error")
	}
}

// TestMergeAlignsOnRank0Clock: a restored rank's events land on rank 0's
// timeline shifted by (epoch + offset − rank 0 epoch), exactly.
func TestMergeAlignsOnRank0Clock(t *testing.T) {
	exchange := func(epoch, offset, errNs int64, rank int, start time.Duration) *Trace {
		tr := New(16)
		tr.epoch = time.Unix(0, epoch)
		tr.SetClockSync(offset, errNs)
		rec := tr.Rank(rank)
		rec.BeginStep(1)
		rec.SetStage(0)
		rec.Exchange(telemetry.CommYtoZ, 256, tr.Epoch().Add(start), tr.Epoch().Add(start+50*time.Microsecond))
		return tr
	}
	// Rank 1's epoch reads 500µs later but its clock runs 500µs ahead of
	// rank 0's, so the stamped offset cancels the difference exactly.
	w := restoreWorld(t, []*Trace{
		exchange(1_000_000_000, 0, 0, 0, 100*time.Microsecond),
		exchange(1_000_500_000, -500_000, 2000, 1, 120*time.Microsecond),
	})
	perRank := w.Events()
	if len(perRank) != 2 {
		t.Fatalf("%d tracks, want 2", len(perRank))
	}
	if got := perRank[0][0].Start; got != 100*time.Microsecond {
		t.Errorf("rank 0 start %v, want 100µs", got)
	}
	if got := perRank[1][0].Start; got != 120*time.Microsecond {
		t.Errorf("rank 1 aligned start %v, want 120µs (offset must cancel the epoch skew)", got)
	}
	if got := w.Rank(1).ClockError(); got != 2000 {
		t.Errorf("rank 1 error bound %d, want 2000", got)
	}
	var buf bytes.Buffer
	if err := w.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if n := flowArrows(buf.Bytes()); n != 1 {
		t.Errorf("%d flow arrows, want 1 (one matched exchange)", n)
	}

	// Without the offset stamp the epoch skew shows up in the timeline.
	w2 := restoreWorld(t, []*Trace{
		exchange(1_000_000_000, 0, 0, 0, 100*time.Microsecond),
		exchange(1_000_500_000, 0, 2000, 1, 120*time.Microsecond),
	})
	if got := w2.Events()[1][0].Start; got != 620*time.Microsecond {
		t.Errorf("unaligned rank 1 start %v, want 620µs", got)
	}

	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("world file fails validation: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"ph": "s"`, `"ph": "f"`, `"bp": "e"`} {
		if !strings.Contains(out, want) {
			t.Errorf("world file missing %s", want)
		}
	}
}

// TestMergeRejectsConflicts: a dump that cannot be placed is an error, not
// a panic — a rank restored twice, a recorder of another capacity, a dump
// cut short, a negative header, a negative rank.
func TestMergeRejectsConflicts(t *testing.T) {
	src := New(8)
	src.Rank(1).Peer(0, 64, src.Epoch(), src.Epoch())
	good := src.Rank(1).Dump()

	w := New(8)
	if err := w.Restore(1, good); err != nil {
		t.Fatal(err)
	}
	if err := w.Restore(1, good); err == nil {
		t.Error("two dumps restored into one rank")
	}
	if err := New(16).Restore(1, good); err == nil {
		t.Error("dump of a recorder of another capacity accepted")
	}
	for name, d := range map[string][]int64{
		"empty":          nil,
		"cut short":      good[:len(good)-1],
		"header only":    good[:dumpHeader],
		"negative count": append([]int64{0, 0, 0, -1}, good[dumpHeader:]...),
		"negative error": append([]int64{0, 0, -1, 1}, good[dumpHeader:]...),
	} {
		if err := New(8).Restore(1, d); err == nil {
			t.Errorf("%s dump accepted", name)
		}
	}
	if err := New(8).Restore(-1, good); err == nil {
		t.Error("restore into rank -1 accepted")
	}
}

// TestParseChromeRejectsUnalignedFile: a rank's events without the clock
// header that places them on rank 0's timeline are refused, not restored
// at an unknown offset. (The name is kept from the JSON trace decoder the
// dump format replaced; the property is the same.)
func TestParseChromeRejectsUnalignedFile(t *testing.T) {
	src := New(8)
	src.Rank(1).Peer(0, 64, src.Epoch(), src.Epoch())
	slots := src.Rank(1).Dump()[dumpHeader:]
	w := New(8)
	err := w.Restore(1, slots)
	if err == nil || !strings.Contains(err.Error(), "dump of") {
		t.Errorf("dump without its clock header accepted (err %v)", err)
	}
	if n := w.Rank(1).Recorded(); n != 0 {
		t.Errorf("refused dump left %d events", n)
	}
}

// TestParseChromeRefusesHostileIdentity: a rank that would index or size
// the trace's per-rank table out of range is refused with an error before
// any table grows — no panic, no allocation of 2^62 slots.
func TestParseChromeRefusesHostileIdentity(t *testing.T) {
	src := New(8)
	src.Rank(3).Peer(0, 64, src.Epoch(), src.Epoch())
	good := src.Rank(3).Dump()
	for _, rank := range []int{-1, -3, MaxWorld, 1 << 62} {
		w := New(8)
		if err := w.Restore(rank, good); err == nil {
			t.Errorf("restore into rank %d accepted", rank)
		}
		if n := w.Ranks(); n != 0 {
			t.Errorf("refused rank %d registered %d rank slots", rank, n)
		}
	}
	w := New(8)
	if err := w.Restore(3, good); err != nil {
		t.Errorf("rank 3 refused: %v", err)
	}
	if n := w.Ranks(); n != 4 {
		t.Errorf("rank 3 restored into %d rank slots, want 4", n)
	}
}

// TestMergedAnalyzeNamesPlantedStraggler: the whole-world critical path
// over per-process recorders dumped and restored into rank 0's trace must
// name the same gating rank that was planted — the acceptance criterion
// linking the world timeline to per-rank telemetry imbalance.
func TestMergedAnalyzeNamesPlantedStraggler(t *testing.T) {
	const world, steps, straggler = 3, 2, 2
	base := 100 * time.Microsecond
	traces := make([]*Trace, world)
	for r := 0; r < world; r++ {
		tr := New(256)
		rec := tr.Rank(r)
		ep := tr.Epoch()
		cursor := time.Duration(0)
		for s := 0; s < steps; s++ {
			rec.BeginStep(int64(s))
			t0 := cursor
			for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
				d := base
				if r == straggler && p == telemetry.PhaseTransposeAB {
					d = 3 * base
				}
				if p == telemetry.PhaseTransposeAB {
					rec.Exchange(telemetry.CommYtoZ, 512, ep.Add(cursor), ep.Add(cursor+d/2))
				}
				rec.TraceSpan(p, ep.Add(cursor), ep.Add(cursor+d))
				cursor += d
			}
			rec.EndStep(ep.Add(t0), ep.Add(cursor))
		}
		traces[r] = tr
	}
	w := restoreWorld(t, traces)
	var buf bytes.Buffer
	if err := w.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if n := flowArrows(buf.Bytes()); n != steps {
		t.Errorf("%d flow arrows, want %d (one exchange per step matched across ranks)", n, steps)
	}
	reports := Analyze(w.Events())
	if len(reports) != steps {
		t.Fatalf("%d step reports, want %d", len(reports), steps)
	}
	for _, rep := range reports {
		if rep.GatingRank != straggler {
			t.Errorf("step %d: gating rank %d, planted %d", rep.Step, rep.GatingRank, straggler)
		}
		if rep.GatingPhase != telemetry.PhaseTransposeAB {
			t.Errorf("step %d: gating phase %v, planted transpose", rep.Step, rep.GatingPhase)
		}
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("world file fails validation: %v", err)
	}
}
