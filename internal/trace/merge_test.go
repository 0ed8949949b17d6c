package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"channeldns/internal/telemetry"
)

// TestChromeParseRoundTrip: ParseChrome must invert WriteChrome — events,
// identity and clock stamps survive the trip through the file format.
func TestChromeParseRoundTrip(t *testing.T) {
	tr := New(64)
	tr.SetIdentity(2, 4)
	tr.SetClockSync(1234, 56)
	rec := tr.Rank(2)
	ep := tr.Epoch()
	rec.BeginStep(7)
	rec.SetStage(1)
	rec.TraceSpan(telemetry.PhaseNonlinear, ep.Add(10*time.Microsecond), ep.Add(30*time.Microsecond))
	rec.Exchange(telemetry.CommYtoZ, 4096, ep.Add(30*time.Microsecond), ep.Add(40*time.Microsecond))
	rec.Peer(3, 1024, ep.Add(32*time.Microsecond), ep.Add(38*time.Microsecond))
	rec.SetStage(-1)
	rec.EndStep(ep.Add(10*time.Microsecond), ep.Add(50*time.Microsecond))

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ParseChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Rank != 2 || rt.World != 4 {
		t.Errorf("identity (%d, %d), stamped (2, 4)", rt.Rank, rt.World)
	}
	if rt.OffsetNs != 1234 || rt.ErrorNs != 56 {
		t.Errorf("clock sync (%d, %d), stamped (1234, 56)", rt.OffsetNs, rt.ErrorNs)
	}
	if rt.EpochUnixNs != ep.UnixNano() {
		t.Errorf("epoch %d, want %d", rt.EpochUnixNs, ep.UnixNano())
	}
	if len(rt.Events) != 4 {
		t.Fatalf("%d events back, want 4", len(rt.Events))
	}
	// Export order: start ascending, enclosing (longer) first on ties.
	wantKinds := []Kind{KindStep, KindPhase, KindExchange, KindPeer}
	for i, ev := range rt.Events {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind %v, want %v", i, ev.Kind, wantKinds[i])
		}
		if ev.Step != 7 {
			t.Errorf("event %d step %d, want 7", i, ev.Step)
		}
	}
	if ph := rt.Events[1]; ph.Phase != telemetry.PhaseNonlinear || ph.Stage != 1 ||
		ph.Start != 10*time.Microsecond || ph.Dur != 20*time.Microsecond {
		t.Errorf("phase event %+v", ph)
	}
	if ex := rt.Events[2]; ex.Op != telemetry.CommYtoZ || ex.Bytes != 4096 || ex.Peer != -1 {
		t.Errorf("exchange event %+v", ex)
	}
	if pw := rt.Events[3]; pw.Peer != 3 || pw.Bytes != 1024 || pw.Dur != 6*time.Microsecond {
		t.Errorf("peer event %+v", pw)
	}
	if st := rt.Events[0]; st.Stage != -1 || st.Dur != 40*time.Microsecond {
		t.Errorf("step event %+v", st)
	}
}

func TestParseChromeRejectsUnalignedFile(t *testing.T) {
	raw := []byte(`{"traceEvents": [], "displayTimeUnit": "ms"}`)
	if _, err := ParseChrome(raw); err == nil || !strings.Contains(err.Error(), "clock_epoch_unix_ns") {
		t.Errorf("file without epoch metadata accepted (err %v)", err)
	}
}

// TestParseChromeRefusesHostileIdentity: a file whose rank or world would
// index or size Merge's per-rank tables out of range is refused at parse.
// The first two panicked Merge before ParseChrome checked them.
func TestParseChromeRefusesHostileIdentity(t *testing.T) {
	for _, od := range []string{
		`"clock_rank": "-1"`,
		`"clock_rank": "4611686018427387904"`,
		`"clock_rank": "2", "clock_world": "2"`,
		`"clock_world": "-3"`,
		`"clock_rank": "0", "clock_world": "1048577"`,
	} {
		raw := []byte(`{"traceEvents": [], "otherData": {"clock_epoch_unix_ns": "1", ` + od + `}}`)
		if rt, err := ParseChrome(raw); err == nil {
			t.Errorf("%s: accepted as rank %d of %d", od, rt.Rank, rt.World)
		}
	}
	raw := []byte(`{"traceEvents": [], "otherData": {"clock_epoch_unix_ns": "1", "clock_rank": "3", "clock_world": "4"}}`)
	if _, err := ParseChrome(raw); err != nil {
		t.Errorf("rank 3 of 4 refused: %v", err)
	}
}

// FuzzParseChrome feeds ParseChrome whatever bytes cmd/trace-merge might be
// handed: no panic, and a file it accepts merges alone without one.
func FuzzParseChrome(f *testing.F) {
	tr := New(16)
	tr.SetIdentity(1, 2)
	tr.SetClockSync(-40, 3)
	rec := tr.Rank(1)
	ep := tr.Epoch()
	rec.BeginStep(2)
	rec.SetStage(0)
	rec.TraceSpan(telemetry.PhaseTransposeAB, ep.Add(time.Microsecond), ep.Add(9*time.Microsecond))
	rec.ExchangePipelined(telemetry.CommZtoX, 3, 512, ep.Add(2*time.Microsecond), ep.Add(8*time.Microsecond))
	rec.Peer(0, 256, ep.Add(3*time.Microsecond), ep.Add(4*time.Microsecond))
	rec.EndStep(ep, ep.Add(10*time.Microsecond))
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents": [], "otherData": {"clock_epoch_unix_ns": "1", "clock_rank": "-1"}}`))
	f.Add([]byte(`{"traceEvents": [], "otherData": {"clock_epoch_unix_ns": "1", "clock_rank": "4611686018427387904"}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		if rt, err := ParseChrome(b); err == nil {
			if _, err := Merge([]*RankTrace{rt}); err != nil {
				t.Fatalf("one accepted file does not merge: %v", err)
			}
		}
	})
}

// TestMergeAlignsOnRank0Clock: per-rank events land on rank 0's timeline
// shifted by (epoch + offset − rank 0 epoch), exactly.
func TestMergeAlignsOnRank0Clock(t *testing.T) {
	exchange := func(start time.Duration) Event {
		return Event{Kind: KindExchange, Op: telemetry.CommYtoZ, Stage: 0, Step: 1, Peer: -1,
			Start: start, Dur: 50 * time.Microsecond, Bytes: 256}
	}
	r0 := &RankTrace{Rank: 0, World: 2, EpochUnixNs: 1_000_000_000,
		Events: []Event{exchange(100 * time.Microsecond)}}
	// Rank 1's epoch reads 500µs later but its clock runs 500µs ahead of
	// rank 0's, so the stamped offset cancels the difference exactly.
	r1 := &RankTrace{Rank: 1, World: 2, EpochUnixNs: 1_000_500_000, OffsetNs: -500_000, ErrorNs: 2000,
		Events: []Event{exchange(120 * time.Microsecond)}}

	m, err := Merge([]*RankTrace{r1, r0})
	if err != nil {
		t.Fatal(err)
	}
	if m.World != 2 || len(m.PerRank) != 2 {
		t.Fatalf("world %d (%d tracks), want 2", m.World, len(m.PerRank))
	}
	if got := m.PerRank[0][0].Start; got != 100*time.Microsecond {
		t.Errorf("rank 0 start %v, want 100µs", got)
	}
	if got := m.PerRank[1][0].Start; got != 120*time.Microsecond {
		t.Errorf("rank 1 aligned start %v, want 120µs (offset must cancel the epoch skew)", got)
	}
	if m.ErrorNs[1] != 2000 {
		t.Errorf("rank 1 error bound %d, want 2000", m.ErrorNs[1])
	}
	if m.FlowArrows != 1 {
		t.Errorf("%d flow arrows, want 1 (one matched exchange)", m.FlowArrows)
	}

	// Without the offset stamp the epoch skew shows up in the timeline.
	r1.OffsetNs = 0
	m2, err := Merge([]*RankTrace{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.PerRank[1][0].Start; got != 620*time.Microsecond {
		t.Errorf("unaligned rank 1 start %v, want 620µs", got)
	}

	var buf bytes.Buffer
	if err := m.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("merged file fails validation: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"ph": "s"`, `"ph": "f"`, `"bp": "e"`, `"merged_world": "2"`} {
		if !strings.Contains(out, want) {
			t.Errorf("merged file missing %s", want)
		}
	}
}

func TestMergeRejectsConflicts(t *testing.T) {
	a := &RankTrace{Rank: 1, World: 2, EpochUnixNs: 1}
	b := &RankTrace{Rank: 1, World: 2, EpochUnixNs: 2}
	if _, err := Merge([]*RankTrace{a, b}); err == nil {
		t.Error("two files claiming one rank accepted")
	}
	c := &RankTrace{Rank: 0, World: 3, EpochUnixNs: 3}
	if _, err := Merge([]*RankTrace{a, c}); err == nil {
		t.Error("files from different worlds accepted")
	}
	if _, err := Merge(nil); err == nil {
		t.Error("empty merge accepted")
	}
}

// TestMergedAnalyzeNamesPlantedStraggler: the whole-world critical path
// over per-rank files exported, parsed and merged must name the same
// gating rank that was planted — the acceptance criterion linking the
// merged timeline to per-rank telemetry imbalance.
func TestMergedAnalyzeNamesPlantedStraggler(t *testing.T) {
	const world, steps, straggler = 3, 2, 2
	base := 100 * time.Microsecond
	files := make([]*RankTrace, world)
	for r := 0; r < world; r++ {
		tr := New(256)
		tr.SetIdentity(r, world)
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
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		rt, err := ParseChrome(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		files[r] = rt
	}
	m, err := Merge(files)
	if err != nil {
		t.Fatal(err)
	}
	if m.FlowArrows != steps {
		t.Errorf("%d flow arrows, want %d (one exchange per step matched across ranks)", m.FlowArrows, steps)
	}
	reports := m.Analyze()
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
	var buf bytes.Buffer
	if err := m.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("merged world file fails validation: %v", err)
	}
}

// TestValidateChromeFlowIntegrity pins the validator's flow rules on
// hand-built files: accept a well-formed s→t→f chain, reject missing ids,
// duplicate starts, missing finishes, and steps before the start.
func TestValidateChromeFlowIntegrity(t *testing.T) {
	file := func(events string) []byte {
		return []byte(`{"traceEvents": [` + events + `], "displayTimeUnit": "ms"}`)
	}
	x := `{"name": "step", "ph": "X", "ts": 1, "dur": 5, "pid": 0, "tid": 0}`
	cases := []struct {
		name   string
		events string
		ok     bool
	}{
		{"chain", x + `,
			{"name": "f1", "ph": "s", "ts": 2, "pid": 0, "tid": 0, "id": "a"},
			{"name": "f1", "ph": "t", "ts": 3, "pid": 0, "tid": 1, "id": "a"},
			{"name": "f1", "ph": "f", "bp": "e", "ts": 4, "pid": 0, "tid": 2, "id": "a"}`, true},
		{"no id", x + `, {"name": "f1", "ph": "s", "ts": 2, "pid": 0, "tid": 0}`, false},
		{"two starts", x + `,
			{"name": "f1", "ph": "s", "ts": 2, "pid": 0, "tid": 0, "id": "a"},
			{"name": "f1", "ph": "s", "ts": 3, "pid": 0, "tid": 1, "id": "a"},
			{"name": "f1", "ph": "f", "ts": 4, "pid": 0, "tid": 2, "id": "a"}`, false},
		{"no finish", x + `, {"name": "f1", "ph": "s", "ts": 2, "pid": 0, "tid": 0, "id": "a"}`, false},
		{"step before start", x + `,
			{"name": "f1", "ph": "t", "ts": 2, "pid": 0, "tid": 1, "id": "a"},
			{"name": "f1", "ph": "s", "ts": 3, "pid": 0, "tid": 0, "id": "a"},
			{"name": "f1", "ph": "f", "ts": 4, "pid": 0, "tid": 2, "id": "a"}`, false},
	}
	for _, tc := range cases {
		_, err := ValidateChrome(file(tc.events))
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
