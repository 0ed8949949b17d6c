package trace

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"channeldns/internal/telemetry"
)

// stragglerTrace builds a synthetic multi-rank trace where, per step, one
// known rank is slowed in one known phase by a factor of slow.
func stragglerTrace(ranks, steps int, straggler func(step int) (rank int, phase telemetry.Phase), slow float64) *Trace {
	tr := New(1024)
	base := 100 * time.Microsecond
	cursor := make([]time.Duration, ranks)
	for s := 0; s < steps; s++ {
		sRank, sPhase := straggler(s)
		for r := 0; r < ranks; r++ {
			rec := tr.Rank(r)
			rec.BeginStep(int64(s))
			t0 := cursor[r]
			for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
				d := base
				if r == sRank && p == sPhase {
					d = time.Duration(slow * float64(base))
				}
				rec.TraceSpan(p, tr.Epoch().Add(cursor[r]), tr.Epoch().Add(cursor[r]+d))
				cursor[r] += d
			}
			rec.EndStep(tr.Epoch().Add(t0), tr.Epoch().Add(cursor[r]))
		}
	}
	return tr
}

// TestAnalyzeNamesKnownStraggler: property test on synthetic traces — for
// a randomized straggler assignment the analyzer must name the planted
// gating rank and phase for every step, with positive slack everywhere
// else. Seeded, so failures reproduce.
func TestAnalyzeNamesKnownStraggler(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		ranks := 2 + rng.Intn(5) // 2..6
		steps := 1 + rng.Intn(6) // 1..6
		plan := make([][2]int, steps)
		for s := range plan {
			plan[s] = [2]int{rng.Intn(ranks), rng.Intn(int(telemetry.NumPhases))}
		}
		tr := stragglerTrace(ranks, steps, func(step int) (int, telemetry.Phase) {
			return plan[step][0], telemetry.Phase(plan[step][1])
		}, 3.0)

		reports := Analyze(tr.Events())
		if len(reports) != steps {
			t.Fatalf("trial %d: %d step reports, want %d", trial, len(reports), steps)
		}
		for i, rep := range reports {
			if rep.Step != int64(i) {
				t.Fatalf("trial %d: reports out of order: %+v", trial, rep)
			}
			wantRank, wantPhase := plan[i][0], telemetry.Phase(plan[i][1])
			if rep.GatingRank != wantRank {
				t.Errorf("trial %d step %d: gating rank %d, planted %d", trial, i, rep.GatingRank, wantRank)
			}
			if rep.GatingPhase != wantPhase {
				t.Errorf("trial %d step %d: gating phase %v, planted %v", trial, i, rep.GatingPhase, wantPhase)
			}
			if rep.SlackSeconds[rep.GatingRank] != 0 {
				t.Errorf("trial %d step %d: gating rank has slack %g", trial, i, rep.SlackSeconds[rep.GatingRank])
			}
			for r := 0; r < ranks; r++ {
				if r != rep.GatingRank && rep.SlackSeconds[r] <= 0 {
					t.Errorf("trial %d step %d: rank %d slack %g, want > 0", trial, i, r, rep.SlackSeconds[r])
				}
			}
			if rep.GatingSeconds <= 0 {
				t.Errorf("trial %d step %d: gating seconds %g", trial, i, rep.GatingSeconds)
			}
		}
	}
}

func TestAnalyzeBalancedStep(t *testing.T) {
	// No straggler: every rank identical. Gating rank is then rank 0 (ties
	// break low) with zero slack everywhere.
	tr := stragglerTrace(4, 2, func(int) (int, telemetry.Phase) { return 0, telemetry.PhaseNonlinear }, 1.0)
	for _, rep := range Analyze(tr.Events()) {
		for r, sl := range rep.SlackSeconds {
			if sl != 0 {
				t.Errorf("step %d rank %d: slack %g in a balanced step", rep.Step, r, sl)
			}
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if got := Analyze(nil); got != nil {
		t.Errorf("Analyze(nil) = %v", got)
	}
	if got := Analyze(New(8).Events()); len(got) != 0 {
		t.Errorf("Analyze(empty) = %v", got)
	}
}

// TestSummarizeFeedsValidReport: the digest must slot into a Report and
// pass Validate, and its slack accounting must be internally consistent.
func TestSummarizeFeedsValidReport(t *testing.T) {
	tr := stragglerTrace(3, 4, func(step int) (int, telemetry.Phase) {
		return step % 3, telemetry.PhaseTransposeAB
	}, 2.5)
	sum := Summarize(tr)
	if sum.Events == 0 || len(sum.Steps) != 4 {
		t.Fatalf("summary %+v", sum)
	}
	if len(sum.RankSlackSeconds) != 3 {
		t.Fatalf("rank slack for %d ranks, want 3", len(sum.RankSlackSeconds))
	}
	for i, s := range sum.Steps {
		if s.GatingRank != i%3 || s.GatingPhase != "transpose" {
			t.Errorf("step %d digest %+v, planted rank %d phase transpose", i, s, i%3)
		}
	}
	reg := telemetry.NewRegistry()
	reg.Rank(0).StepDone(time.Millisecond)
	rep := telemetry.NewReport("table9", reg, nil)
	rep.Trace = sum
	if err := rep.Validate(); err != nil {
		t.Errorf("report with trace summary fails Validate: %v", err)
	}
}

func TestSummarizeNil(t *testing.T) {
	if Summarize(nil) != nil {
		t.Error("Summarize(nil) must be nil")
	}
}

func TestWriteStragglerTable(t *testing.T) {
	tr := stragglerTrace(2, 2, func(int) (int, telemetry.Phase) { return 1, telemetry.PhaseFFTForward }, 4.0)
	var sb strings.Builder
	WriteStragglerTable(&sb, Analyze(tr.Events()))
	out := sb.String()
	if !strings.Contains(out, "fft_forward") || !strings.Contains(out, "gating phase") {
		t.Errorf("table missing expected content:\n%s", out)
	}
	sb.Reset()
	WriteStragglerTable(&sb, nil)
	if !strings.Contains(sb.String(), "no steps") {
		t.Errorf("empty table output %q", sb.String())
	}
}

// TestAnalyzeExposedWireIsExchangeWindow: the per-peer waits an alltoallv
// records lie inside the exchange window its transpose records, so a step
// with one 10 ms exchange holding a 6 ms peer wait exposes 10 ms of wire,
// not 16.
func TestAnalyzeExposedWireIsExchangeWindow(t *testing.T) {
	tr := New(64)
	rec := tr.Rank(0)
	t0 := tr.Epoch()
	rec.BeginStep(0)
	rec.TraceSpan(telemetry.PhaseTransposeAB, t0, t0.Add(12*time.Millisecond))
	rec.Exchange(telemetry.CommYtoZ, 1024, t0.Add(time.Millisecond), t0.Add(11*time.Millisecond))
	rec.Peer(1, 512, t0.Add(3*time.Millisecond), t0.Add(9*time.Millisecond))
	rec.EndStep(t0, t0.Add(12*time.Millisecond))
	reports := Analyze(tr.Events())
	if len(reports) != 1 {
		t.Fatalf("%d step reports, want 1", len(reports))
	}
	if got, want := reports[0].ExposedWireSeconds, 0.010; math.Abs(got-want) > 1e-12 {
		t.Errorf("exposed wire %g s, want %g s (the exchange window alone)", got, want)
	}
}
