// Package run is the one run loop of the repository: bring a workload to
// its starting state (newest valid checkpoint, else the default initial
// condition), step it to an absolute target step at fixed or adaptive dt,
// checkpoint and report status on cadences keyed on the absolute step
// count, stop cleanly when asked, and assemble the telemetry report.
// cmd/dns and the dnsserve job manager both drive their runs through it
// and supply hooks only for what differs between them (printing versus
// job-record updates, heartbeats, plane rendering, pacing).
//
// Everything here is collective: every rank of the workload's world builds
// a Driver with the same settings and makes the same calls. Hooks run on
// every rank, strictly between steps; the stop decision alone is taken on
// rank 0 and broadcast, so all ranks agree on every branch.
package run

import (
	"errors"
	"fmt"

	"channeldns/internal/ckpt"
	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// cflCheckEvery is the adaptive-dt cadence: the CFL estimate (a collective)
// is refreshed whenever the absolute step count is a multiple of it.
const cflCheckEvery = 5

// Driver runs one workload. The exported fields are set before Start and
// not changed afterwards; nil hooks are skipped.
type Driver struct {
	WL core.Workload
	// Store receives the checkpoints and is what Start resumes from; nil
	// runs without checkpointing.
	Store *ckpt.Store
	// TargetCFL > 0 steps adaptively toward that CFL number; 0 keeps dt
	// fixed. Either way a resumed run is bit-identical to an uninterrupted
	// one: checkpoints carry dt and the maxima the CFL estimate reads.
	TargetCFL float64
	// CkptEvery and StatusEvery are cadences in absolute steps; 0 is off.
	// With a store, a checkpoint is also written at the target step and
	// before a stop whatever CkptEvery says; with StatusEvery on, a status
	// line is also emitted at the target step.
	CkptEvery, StatusEvery int

	// Checkpointed is called after each published checkpoint.
	Checkpointed func(name string)
	// Status receives the workload's status line on the status cadence;
	// required when StatusEvery > 0.
	Status func(line string)
	// AfterStep is called after every step, once its checkpoint and status
	// work is done.
	AfterStep func()
	// ShouldStop is polled on rank 0 before every step; its answer is
	// broadcast, and true leaves the loop resumably: the current step is
	// checkpointed (when a store is set) before RunTo returns. Nil never
	// stops (and costs no collective).
	ShouldStop func() bool

	// lastCkpt is the step the store's newest checkpoint holds (-1: none
	// known), so one step is never written twice.
	lastCkpt int
}

// Start brings the workload to its starting state. With resume set and a
// store present it restores the newest valid checkpoint (falling back past
// corrupt ones) and returns its name; with nothing to resume from it seeds
// the default initial condition and returns "".
func (d *Driver) Start(resume bool, amp float64, seed int64) (string, error) {
	d.lastCkpt = -1
	if resume && d.Store != nil {
		name, err := d.WL.ResumeLatest(d.Store)
		if err == nil {
			d.lastCkpt = d.WL.CurrentStep()
			return name, nil
		}
		if !errors.Is(err, ckpt.ErrNoCheckpoint) {
			return "", fmt.Errorf("resume: %w", err)
		}
	}
	d.WL.InitDefault(amp, seed)
	return "", nil
}

// RunTo steps the workload until its absolute step count reaches target or
// a stop is requested, and reports whether it stopped short. Call it after
// Start.
func (d *Driver) RunTo(target int) (stopped bool, err error) {
	wl := d.WL
	c := wl.World()
	for wl.CurrentStep() < target {
		if d.ShouldStop != nil {
			var stop int
			if c.Rank() == 0 && d.ShouldStop() {
				stop = 1
			}
			if stopped = mpi.Bcast(c, 0, []int{stop})[0] == 1; stopped {
				break
			}
		}
		if d.TargetCFL > 0 {
			core.AdvanceAdaptive(wl, 1, d.TargetCFL, cflCheckEvery)
		} else {
			wl.StepOnce()
		}
		n := wl.CurrentStep()
		final := n >= target
		if (d.CkptEvery > 0 && n%d.CkptEvery == 0) || final {
			if err := d.checkpoint(); err != nil {
				return stopped, err
			}
		}
		if d.StatusEvery > 0 && (n%d.StatusEvery == 0 || final) {
			d.Status(wl.StatusLine())
		}
		if d.AfterStep != nil {
			d.AfterStep()
		}
	}
	// A stopped run must be resumable from where it stopped, and a run that
	// was already at its target still publishes its state.
	return stopped, d.checkpoint()
}

// checkpoint publishes the current step unless the store already holds it.
func (d *Driver) checkpoint() error {
	if d.Store == nil || d.WL.CurrentStep() == d.lastCkpt {
		return nil
	}
	name, err := d.WL.WriteCheckpoint(d.Store)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	d.lastCkpt = d.WL.CurrentStep()
	if d.Checkpointed != nil {
		d.Checkpointed(name)
	}
	return nil
}

// Report assembles the BENCH-schema report of a run from the
// instrumentation attached to cfg: the registry's aggregates, the trace
// digest when a recorder is attached, and the workload's schedule block.
// The schedule describes the divergence-form pipeline only — the other
// forms move different forward-path traffic — so it is left out for them.
func Report(tool string, cfg core.Config, config map[string]string) *telemetry.Report {
	rep := telemetry.NewReport(tool, cfg.Telemetry, config)
	if cfg.Trace != nil {
		rep.Trace = trace.Summarize(cfg.Trace)
	}
	if cfg.Nonlinear == core.FormDivergence {
		if sched, err := core.WorkloadSchedule(cfg); err == nil {
			rep.Schedule = sched
		}
	}
	return rep
}
