package core

import (
	"fmt"
	"strings"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
)

// Tests of the workload table: name resolution, bit-identity of the channel solver through the registry adapter, and
// schedule consistency of every registered workload on a multi-rank run.

func TestWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("WorkloadNames not sorted: %v", names)
		}
	}
	for _, want := range []string{WorkloadChannel, WorkloadIsotropic, WorkloadScalar} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("workload %q missing from %v", want, names)
		}
	}
}

func TestUnknownWorkloadErrorListsRegistry(t *testing.T) {
	// The error is the command line's only hint after a typo, so it must
	// carry the full registry. The error path never builds a solver, so no
	// communicator is needed.
	_, err := NewWorkload(nil, Config{Workload: "nope"})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, want := range append([]string{`"nope"`}, WorkloadNames()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if _, err := WorkloadSchedule(Config{Workload: "nope"}); err == nil {
		t.Fatal("WorkloadSchedule accepted an unknown workload")
	}
}

// TestChannelBitIdenticalThroughRegistry: the registry adapter must be a
// pure indirection — a channel run constructed through NewWorkload +
// InitDefault produces the same trajectory, to the last bit, as the direct
// New + SetLaminar + Perturb sequence it wraps.
func TestChannelBitIdenticalThroughRegistry(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		direct, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		direct.SetLaminar()
		direct.Perturb(0.3, 2, 2, 7)
		Advance(direct, 3)

		wl, err := NewWorkload(c, cfg) // empty Workload selects "channel"
		if err != nil {
			t.Error(err)
			return
		}
		cf, ok := wl.(ChannelFlow)
		if !ok {
			t.Error("channel workload does not expose ChannelSolver")
			return
		}
		reg := cf.ChannelSolver()
		if reg.Cfg.Workload != WorkloadChannel {
			t.Errorf("default workload resolved to %q", reg.Cfg.Workload)
			return
		}
		wl.InitDefault(0.3, 7)
		Advance(wl, 3)

		for f, pair := range [][2][][]complex128{{direct.cv, reg.cv}, {direct.cw, reg.cw}} {
			for w := range pair[0] {
				for iy := range pair[0][w] {
					if pair[0][w][iy] != pair[1][w][iy] {
						t.Errorf("field %d mode %d iy=%d: direct %v registry %v",
							f, w, iy, pair[0][w][iy], pair[1][w][iy])
						return
					}
				}
			}
		}
		for iy := range direct.meanU {
			if direct.meanU[iy] != reg.meanU[iy] || direct.meanW[iy] != reg.meanW[iy] {
				t.Errorf("mean profile iy=%d: direct (%v,%v) registry (%v,%v)",
					iy, direct.meanU[iy], direct.meanW[iy], reg.meanU[iy], reg.meanW[iy])
				return
			}
		}
	})
}

// TestWorkloadSchedulesConsistent: every registered workload's declarative
// schedule block must match the comm traffic and flop count its solver
// actually generates on a small 2x2-rank run — the invariant bench-validate
// enforces on CI artifacts, checked here at the source for all entries.
func TestWorkloadSchedulesConsistent(t *testing.T) {
	for _, name := range WorkloadNames() {
		t.Run(name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			cfg := Config{Workload: name, Nx: 16, Ny: 17, Nz: 16,
				ReTau: 180, Dt: 1e-3, PA: 2, PB: 2, Telemetry: reg}
			if name == WorkloadIsotropic {
				cfg.Ny = 16 // periodic in y: no wall grid line
			} else {
				cfg.Forcing = 1
			}
			sched, err := WorkloadSchedule(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mpi.Run(4, func(c *mpi.Comm) {
				wl, err := NewWorkload(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				wl.InitDefault(0.3, 1)
				Advance(wl, 1) // warm operator caches and wire arenas
				c.Barrier()
				if c.Rank() == 0 {
					reg.Reset()
				}
				c.Barrier()
				Advance(wl, 2)
			})
			rep := telemetry.NewReport("test", reg, map[string]string{
				"workload": name,
			})
			rep.Schedule = sched
			if err := rep.CheckScheduleConsistency(); err != nil {
				t.Errorf("workload %q: %v", name, err)
			}
			if len(rep.Comm) == 0 {
				t.Errorf("workload %q recorded no comm traffic on 4 ranks", name)
			}
			if rep.Flops == 0 {
				t.Errorf("workload %q recorded no flops", name)
			}
			t.Logf("workload %q: %d schedule ops, %s flops/step declared",
				name, len(sched.Ops), fmt.Sprint(sched.TotalFlops()))
		})
	}
}
