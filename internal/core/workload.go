// Workload table: the channel solver is one simulation scenario of
// many sharing the pencil/FFT substrate. A Workload bundles everything a
// driver needs — construction, default initial conditions, time advance,
// a status line, checkpointing, and a declarative schedule block — so
// cmd/dns, the bench tools, telemetry validation and machine-model
// pricing work identically for each of the three.
package core

import (
	"fmt"
	"sort"

	"channeldns/internal/ckpt"
	"channeldns/internal/mpi"
	"channeldns/internal/schedule"
)

// Names of the built-in workloads.
const (
	WorkloadChannel   = "channel"
	WorkloadIsotropic = "isotropic"
	WorkloadScalar    = "scalar"
)

// Workload is a running simulation scenario. All methods that touch
// distributed state (advance, status, checkpointing) are collective: every
// rank of the workload's world must call them together.
type Workload interface {
	// World returns the communicator the workload runs on.
	World() *mpi.Comm
	// CurrentStep, CurrentTime and CurrentDt expose the time-advance
	// state (CurrentDt tracks adaptive stepping).
	CurrentStep() int
	CurrentTime() float64
	CurrentDt() float64
	// SetDt changes the time step; operator caches keyed on dt rebuild on
	// the next step.
	SetDt(dt float64)
	// InitDefault seeds the workload's canonical initial condition: the
	// base state plus a deterministic divergence-free perturbation of
	// amplitude amp derived from seed.
	InitDefault(amp float64, seed int64)
	// StepOnce advances one full RK3 step (Advance and AdvanceAdaptive
	// take n of them).
	StepOnce()
	// CFLEstimate returns the current CFL number at the current dt.
	CFLEstimate() float64
	// StatusLine returns a one-line progress summary. Collective; the
	// returned string is meaningful on every rank.
	StatusLine() string
	// Checkpointing, implemented once for every solver (see
	// checkpoint.go). The store is workload-agnostic; states carry the
	// workload name so cross-workload resumes fail with both names.
	NewCheckpointStore(dir string, keep int) *ckpt.Store
	WriteCheckpoint(store *ckpt.Store) (string, error)
	ResumeLatest(store *ckpt.Store) (string, error)
}

// Advance runs n full time steps at the current dt.
func Advance(wl Workload, n int) {
	for i := 0; i < n; i++ {
		wl.StepOnce()
	}
}

// AdvanceAdaptive runs n full time steps, re-estimating the convective CFL
// bound whenever the absolute step count is a multiple of checkEvery and
// rescaling the time step to keep it near targetCFL. This is how production
// DNS survives transition, where fluctuation amplitudes grow by large
// factors before saturating. Keying the check on the step count (not on
// this call's loop index) makes the trajectory independent of how a caller
// chunks its steps: 3+7 steps equal 10. The adjustment is collective and
// deterministic across ranks; changing dt rebuilds the operator caches.
// Returns the final dt. A non-finite state reads CFL NaN, which fails the
// cfl > 0 test, so the loop keeps stepping at the old dt: stopping it needs
// a step that can return an error.
func AdvanceAdaptive(wl Workload, n int, targetCFL float64, checkEvery int) float64 {
	if targetCFL <= 0 {
		panic("core: targetCFL must be positive")
	}
	if checkEvery < 1 {
		checkEvery = 1
	}
	for i := 0; i < n; i++ {
		if wl.CurrentStep()%checkEvery == 0 {
			if cfl := wl.CFLEstimate(); cfl > 0 {
				scale := targetCFL / cfl
				// Damp the adjustment and only act outside a dead band so
				// the operator caches are not rebuilt every check.
				if scale < 0.9 || scale > 1.5 {
					if scale > 2 {
						scale = 2
					}
					if scale < 0.3 {
						scale = 0.3
					}
					wl.SetDt(wl.CurrentDt() * scale)
				}
			}
		}
		wl.StepOnce()
	}
	return wl.CurrentDt()
}

// ChannelFlow is implemented by workloads whose state is (or embeds) the
// wall-bounded channel solver, giving drivers access to channel-specific
// diagnostics (mean profiles, friction velocity, spectra, budgets). The
// passive-scalar workload qualifies; isotropic turbulence does not.
type ChannelFlow interface {
	ChannelSolver() *Solver
}

// workloadEntry is one scenario of the table: build constructs it on a
// communicator; sched emits its per-step schedule block purely from the
// configuration (no solver instance needed, so bench tools can price and
// validate a workload without running it).
type workloadEntry struct {
	build func(world *mpi.Comm, cfg Config) (Workload, error)
	sched func(cfg Config) *schedule.Schedule
}

// workloads is the fixed table of scenarios, keyed by name. init fills it:
// the constructors read it back (newBase credits flops from the schedule),
// a cycle Go refuses in a package-level initializer.
var workloads map[string]workloadEntry

func init() {
	workloads = map[string]workloadEntry{
		WorkloadChannel: {
			func(world *mpi.Comm, cfg Config) (Workload, error) { return New(world, cfg) },
			Config.Schedule},
		WorkloadIsotropic: {
			func(world *mpi.Comm, cfg Config) (Workload, error) { return NewIsotropic(world, cfg) },
			Config.IsotropicSchedule},
		WorkloadScalar: {
			func(world *mpi.Comm, cfg Config) (Workload, error) { return NewScalar(world, cfg) },
			Config.ScalarSchedule},
	}
}

// WorkloadNames returns the workload names, sorted.
func WorkloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewWorkload constructs the workload named by cfg.Workload ("" selects
// "channel") on the given communicator. Unknown names report the full
// table so a typo on the command line is self-diagnosing.
func NewWorkload(world *mpi.Comm, cfg Config) (Workload, error) {
	name := cfg.Workload
	if name == "" {
		name = WorkloadChannel
	}
	ent, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q (registered: %v)", name, WorkloadNames())
	}
	cfg.Workload = name
	return ent.build(world, cfg)
}

// WorkloadSchedule returns the declarative per-step schedule block of the
// workload named by cfg.Workload, without constructing a solver. For the
// channel workloads the block describes the divergence-form nonlinear
// pipeline (the only form the schedule models).
func WorkloadSchedule(cfg Config) (*schedule.Schedule, error) {
	name := cfg.Workload
	if name == "" {
		name = WorkloadChannel
	}
	ent, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q (registered: %v)", name, WorkloadNames())
	}
	return ent.sched(cfg), nil
}

// ChannelSolver exposes the solver to channel-specific diagnostics.
func (s *Solver) ChannelSolver() *Solver { return s }

// InitDefault seeds the canonical channel initial condition: the laminar
// parabola plus a deterministic divergence-free perturbation.
func (s *Solver) InitDefault(amp float64, seed int64) {
	s.SetLaminar()
	s.Perturb(amp, 2, 2, seed)
}

// StatusLine summarizes the run the way cmd/dns always has: energy,
// friction velocity, bulk velocity and the boundary-condition residual.
// Collective.
func (s *Solver) StatusLine() string {
	e := s.TotalEnergy()
	ut := s.FrictionVelocity()
	ub := s.BulkVelocity()
	bc := s.BCResidual()
	return fmt.Sprintf("step %6d  t=%8.4f  E=%10.6f  u_tau=%6.4f  Ub=%8.4f  BCres=%.2e",
		s.Step, s.Time, e, ut, ub, bc)
}
