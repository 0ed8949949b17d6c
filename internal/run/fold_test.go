package run

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// onTCPRanks runs body on every rank of cfg's process grid over the TCP
// transport, each rank with a fresh workload on its own registry and
// trace, as the ranks of separate processes have.
func onTCPRanks(t *testing.T, cfg core.Config, regs []*telemetry.Registry, trcs []*trace.Trace,
	body func(c *mpi.Comm, wl core.Workload)) {
	t.Helper()
	mpi.RunTCP(cfg.PA*cfg.PB, func(c *mpi.Comm) {
		cfg := cfg
		cfg.Telemetry, cfg.Trace = regs[c.Rank()], trcs[c.Rank()]
		wl, err := core.NewWorkload(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		body(c, wl)
	})
}

// runSteps starts wl and steps it to target.
func runSteps(t *testing.T, d *Driver, target int) {
	t.Helper()
	if _, err := d.Start(false, amp, seed); err != nil {
		t.Error(err)
	}
	if _, err := d.RunTo(target); err != nil {
		t.Error(err)
	}
}

// TestFoldMatchesSharedRegistry: after one fold, rank 0 of a TCP world
// whose ranks each hold their own registry sees what the shared registry
// of the same run on in-process ranks holds — steps, per-phase calls,
// per-channel comm counters — plus a wire block for every rank. A second
// fold, the final one with the recorders, changes none of it and gives
// rank 0's trace every rank's events.
func TestFoldMatchesSharedRegistry(t *testing.T) {
	const steps = 2
	cfg := workloads[0]
	shared := cfg
	shared.Telemetry = telemetry.NewRegistry()
	onRanks(t, shared, func(c *mpi.Comm, wl core.Workload) {
		runSteps(t, &Driver{WL: wl}, steps)
	})
	want := shared.Telemetry.Snapshot()

	world := cfg.PA * cfg.PB
	regs := make([]*telemetry.Registry, world)
	trcs := make([]*trace.Trace, world)
	for r := range regs {
		regs[r], trcs[r] = telemetry.NewRegistry(), trace.New(0)
	}
	var first, second telemetry.Snapshot
	onTCPRanks(t, cfg, regs, trcs, func(c *mpi.Comm, wl core.Workload) {
		runSteps(t, &Driver{WL: wl}, steps)
		f := Fold{Reg: regs[c.Rank()], Trace: trcs[c.Rank()]}
		if err := f.Gather(c, false); err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			first = regs[0].Snapshot()
		}
		if err := f.Gather(c, true); err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			second = regs[0].Snapshot()
		}
	})

	if first.Ranks != want.Ranks || first.Steps != want.Steps {
		t.Errorf("folded %d ranks, %d steps; shared registry %d ranks, %d steps",
			first.Ranks, first.Steps, want.Ranks, want.Steps)
	}
	calls := func(s telemetry.Snapshot) map[string]int64 {
		m := map[string]int64{}
		for _, p := range s.Phases {
			m[p.Phase] = p.Calls
		}
		return m
	}
	if got, w := calls(first), calls(want); !reflect.DeepEqual(got, w) {
		t.Errorf("folded phase calls %v, shared registry %v", got, w)
	}
	if !reflect.DeepEqual(first.Comm, want.Comm) {
		t.Errorf("folded comm %+v\nshared registry %+v", first.Comm, want.Comm)
	}
	if !reflect.DeepEqual(second, first) {
		t.Errorf("a second fold changed rank 0's snapshot:\n first %+v\nsecond %+v", first, second)
	}
	if w := regs[0].Wire(); w == nil || len(w.Ranks) != world || w.Ranks[1].FramesOut == 0 {
		t.Errorf("wire block %+v, want %d ranks with traffic", w, world)
	}
	for r, evs := range trcs[0].Events() {
		if len(evs) == 0 {
			t.Errorf("rank 0's trace holds no events of rank %d after the final fold", r)
		}
	}
}

// TestFoldScrapeNeverDecreases: a /metrics scrape racing the folds of a
// running TCP world sees every _total series only grow (and, under -race,
// no data race between the folds and the scrape). Idle folds after the
// run give the scrape many more chances to land inside one.
func TestFoldScrapeNeverDecreases(t *testing.T) {
	cfg := workloads[0]
	world := cfg.PA * cfg.PB
	regs := make([]*telemetry.Registry, world)
	trackers := make([]*telemetry.WorldTracker, world)
	for r := range regs {
		regs[r] = telemetry.NewRegistry()
		trackers[r] = telemetry.NewWorldTracker(world, regs[r])
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := map[string]float64{}
		for scrapes := 0; ; scrapes++ {
			select {
			case <-done:
				if scrapes < 2 {
					t.Errorf("%d scrapes raced the run", scrapes)
				}
				return
			default:
			}
			var sb strings.Builder
			trackers[0].WriteMetrics(&sb, 0)
			now := map[string]float64{}
			for _, line := range strings.Split(sb.String(), "\n") {
				series, value, ok := strings.Cut(line, " ")
				if !ok || strings.HasPrefix(line, "#") || !strings.Contains(series, "_total") {
					continue
				}
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					t.Errorf("series %s: %v", series, err)
					return
				}
				now[series] = v
			}
			// A series that vanishes has, to a scraper, fallen to zero.
			for series, was := range seen {
				if v := now[series]; v < was {
					t.Errorf("%s fell from %g to %g", series, was, v)
					return
				}
			}
			seen = now
		}
	}()
	onTCPRanks(t, cfg, regs, make([]*trace.Trace, world), func(c *mpi.Comm, wl core.Workload) {
		f := Fold{Reg: regs[c.Rank()], Tracker: trackers[c.Rank()]}
		d := &Driver{WL: wl, AfterStep: func() {
			if err := f.Gather(c, false); err != nil {
				t.Error(err)
			}
		}}
		runSteps(t, d, 4)
		for i := 0; i < 200; i++ {
			d.AfterStep()
		}
	})
	close(done)
	wg.Wait()
}
