package telemetry

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// feedRegistry drives a fixed workload into a registry from `workers`
// goroutines per rank, with a permutation knob that changes the
// interleaving but not the multiset of samples.
func feedRegistry(reg *Registry, ranks, workers int, perm int) {
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		c := reg.Rank(r)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(r, w int) {
				defer wg.Done()
				// Permute the order of operations per goroutine.
				n := 20
				for i := 0; i < n; i++ {
					j := (i*perm + w) % n
					c.AddComm(CommYtoZ, int64(100+j), 2)
					c.AddFlops(int64(10 * j))
					c.phases[PhaseTransposeAB].ns.Add(int64(j+1) * 1000)
					c.phases[PhaseTransposeAB].calls.Add(1)
				}
			}(r, w)
		}
	}
	wg.Wait()
	for r := 0; r < ranks; r++ {
		reg.Rank(r).StepDone(7 * time.Millisecond)
	}
}

// fixReportMeta pins the ambient build metadata so two in-process reports
// are byte-comparable.
func fixReportMeta(r *Report) {
	r.GitRev = "deadbeef"
}

// TestReportDeterministic: the same run (same multiset of samples per
// rank) must produce byte-identical report JSON regardless of how worker
// goroutines interleaved their recording — the aggregation is pure
// reduction, the encoder field order is fixed, and map keys are sorted.
func TestReportDeterministic(t *testing.T) {
	encode := func(perm int) []byte {
		reg := NewRegistry()
		feedRegistry(reg, 4, 3, perm)
		rep := NewReport("determinism", reg, map[string]string{"nx": "16", "a": "1"})
		fixReportMeta(rep)
		var buf bytes.Buffer
		if err := rep.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := encode(1)
	for _, perm := range []int{3, 7, 13} {
		b := encode(perm)
		if !bytes.Equal(a, b) {
			t.Fatalf("report bytes differ between interleavings:\n%s\n---\n%s", a, b)
		}
	}
}

// TestReportValidateRoundTrip: a built report must validate, survive the
// JSON round trip, and re-validate.
func TestReportValidateRoundTrip(t *testing.T) {
	reg := NewRegistry()
	feedRegistry(reg, 2, 2, 1)
	rep := NewReport("table9", reg, nil)
	if err := rep.Validate(); err != nil {
		t.Fatalf("fresh report invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ValidateJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if back.Table != "table9" || back.Ranks != 2 {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

// TestReportValidateRejects: the validator must catch the corruption
// modes bench-smoke exists to catch.
func TestReportValidateRejects(t *testing.T) {
	fresh := func() *Report {
		reg := NewRegistry()
		feedRegistry(reg, 1, 1, 1)
		return NewReport("t", reg, nil)
	}
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "v0" }},
		{"empty table", func(r *Report) { r.Table = "" }},
		{"unknown phase", func(r *Report) { r.Phases[0].Phase = "warp_drive" }},
		{"zero-call phase", func(r *Report) { r.Phases[0].Calls = 0 }},
		{"min above max", func(r *Report) {
			r.Phases[0].MinRankSeconds = r.Phases[0].MaxRankSeconds + 1
		}},
		{"negative bytes", func(r *Report) { r.Comm[0].Bytes = -1 }},
		{"nil config", func(r *Report) { r.Config = nil }},
	}
	for _, tc := range cases {
		r := fresh()
		tc.mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	if _, err := ValidateJSON([]byte(`{"schema":"channeldns/bench/v2","unknown_field":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ValidateJSON([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestSnapshotImbalance: a deliberately skewed pair of ranks must show
// max/mean imbalance > 1 and correct min/max attribution.
func TestSnapshotImbalance(t *testing.T) {
	reg := NewRegistry()
	fast, slow := reg.Rank(0), reg.Rank(1)
	fast.phases[PhaseViscousSolve].ns.Store(int64(time.Millisecond))
	fast.phases[PhaseViscousSolve].calls.Store(1)
	slow.phases[PhaseViscousSolve].ns.Store(int64(3 * time.Millisecond))
	slow.phases[PhaseViscousSolve].calls.Store(1)

	snap := reg.Snapshot()
	if len(snap.Phases) != 1 {
		t.Fatalf("phases = %d, want 1 (unsampled phases dropped)", len(snap.Phases))
	}
	p := snap.Phases[0]
	if p.Phase != PhaseViscousSolve.String() {
		t.Fatalf("phase = %q", p.Phase)
	}
	mean := (0.001 + 0.003) / 2
	if p.MinRankSeconds != 0.001 || p.MaxRankSeconds != 0.003 {
		t.Errorf("min/max = %g/%g", p.MinRankSeconds, p.MaxRankSeconds)
	}
	if diff := p.Imbalance - 0.003/mean; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("imbalance = %g, want %g", p.Imbalance, 0.003/mean)
	}
}

// TestRegistryRankReuse: the same rank handle must come back on repeat
// calls, and the snapshot must skip never-registered gaps.
func TestRegistryRankReuse(t *testing.T) {
	reg := NewRegistry()
	a := reg.Rank(5)
	if reg.Rank(5) != a {
		t.Fatal("Rank(5) returned a different collector")
	}
	sp := a.Begin(PhaseCollective)
	sp.End()
	snap := reg.Snapshot()
	if snap.Ranks != 1 {
		t.Errorf("snapshot ranks = %d, want 1 (gaps skipped)", snap.Ranks)
	}
}
