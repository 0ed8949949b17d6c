package core

import (
	"time"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/parfft"
	"channeldns/internal/pencil"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// base is the skeleton every workload shares: configuration, grid, pencil
// decomposition and local (kx, kz) window, the instrumentation attach, the
// run position with the bracket around one RK3 step, the dealiased excursion
// with its harvested physical maxima, the lists of checkpointed slices, and
// the Workload accessors and checkpoint methods that depend on nothing else.
// Solver and IsoSolver embed it and supply only their physics (ScalarSolver
// reaches it through its *Solver).
type base struct {
	Cfg Config
	G   Grid
	D   *pencil.Decomp
	nu  float64

	// Local wavenumber window (y-pencil): one-sided kx and wrapped kz.
	kxlo, kxhi, kzlo, kzhi int
	nw                     int // (kxhi-kxlo)*(kzhi-kzlo)

	// exc carries fields to the padded physical grid and back for every
	// workload's nonlinear term. Its MaxAbs holds the per-y maxima of |u|,
	// |v|, |w| of the last harvesting pass (this rank's y range; zero
	// elsewhere) or of the restored checkpoint (every y), which CFLEstimate
	// reads while maxCurrent says one of the two has set them.
	exc        *parfft.Excursion
	maxCurrent bool

	// tel is this rank's telemetry collector (nil when Config.Telemetry is
	// unset — every recording call is then a no-op); stepFlops is this
	// rank's share of the machine model's per-step operation count,
	// credited once per step. trc is this rank's flight recorder (nil when
	// Config.Trace is unset).
	tel       *telemetry.Collector
	stepFlops int64
	trc       *trace.Recorder

	Time float64
	Step int
	t0   time.Time // start of the step in flight, see beginStep

	// fields and means point at the slices a checkpoint carries, in shard
	// order; means is empty off the rank that owns the (0,0) mode. Each
	// constructor fills them once. They are pointers because every substep
	// swaps the previous-substep sets with the arena's.
	fields []*[][]complex128
	means  []*[]float64
}

// init validates cfg for the workload it names and builds the shared
// skeleton collectively on world.
func (b *base) init(world *mpi.Comm, cfg Config) error {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.Trace != nil && cfg.Telemetry == nil {
		// Phase events piggyback on telemetry spans, so tracing needs a
		// collector even when the caller did not ask for aggregates.
		cfg.Telemetry = telemetry.NewRegistry()
	}
	g := NewGrid(cfg.Nx, cfg.Ny, cfg.Nz, cfg.Lx, cfg.Lz)
	b.Cfg, b.G, b.nu = cfg, g, 1/cfg.ReTau
	if cfg.Telemetry != nil {
		b.tel = cfg.Telemetry.Rank(world.Rank())
		// Attach before the cartesian splits below so CommA/CommB inherit
		// the collector for their collective instrumentation.
		world.SetTelemetry(b.tel)
		// Flop accounting comes from the same schedule that describes the
		// workload's step, divided evenly across ranks.
		b.stepFlops = int64(workloads[cfg.Workload].sched(cfg).TotalFlops() / float64(world.Size()))
	}
	if cfg.Trace != nil {
		b.trc = cfg.Trace.Rank(world.Rank())
		// Same pre-split attach, so the sub-communicators inherit the
		// recorder for their per-peer exchange events.
		world.SetTracer(b.trc)
		b.tel.SetTracer(b.trc)
	}
	b.D = pencil.New(world, cfg.PA, cfg.PB, g.NKx(), g.Nz, g.Ny, cfg.Pool)
	b.D.Telemetry = b.tel
	b.D.Trace = b.trc
	b.kxlo, b.kxhi = b.D.KxRange()
	b.kzlo, b.kzhi = b.D.KzRangeY()
	b.nw = (b.kxhi - b.kxlo) * (b.kzhi - b.kzlo)
	return nil
}

// widx maps global mode indices to the local wavenumber slot, or -1.
func (b *base) widx(ikx, ikz int) int {
	if ikx < b.kxlo || ikx >= b.kxhi || ikz < b.kzlo || ikz >= b.kzhi {
		return -1
	}
	return (ikx-b.kxlo)*(b.kzhi-b.kzlo) + (ikz - b.kzlo)
}

// modeOf inverts widx: local slot -> global (ikx, ikz).
func (b *base) modeOf(w int) (int, int) {
	nkz := b.kzhi - b.kzlo
	return b.kxlo + w/nkz, b.kzlo + w%nkz
}

// eachMode calls f for every local slot but the z Nyquist ones, in slot
// order, with the slot, its global (ikx, ikz) and its Parseval weight: 2 for
// kx > 0, whose modes stand for their conjugate partners too, else 1. Every
// serial diagnostic reads the local modes through it.
func (b *base) eachMode(f func(w, ikx, ikz int, wt float64)) {
	for w := 0; w < b.nw; w++ {
		ikx, ikz := b.modeOf(w)
		if b.G.IsNyquistZ(ikz) {
			continue
		}
		wt := 2.0
		if ikx == 0 {
			wt = 1
		}
		f(w, ikx, ikz, wt)
	}
}

// pool returns the worker pool; a nil *par.Pool runs serially.
func (b *base) pool() *par.Pool { return b.Cfg.Pool }

// World returns the full communicator backing the process grid.
func (b *base) World() *mpi.Comm { return b.D.Cart.Comm }

// Nu returns the kinematic viscosity 1/ReTau.
func (b *base) Nu() float64 { return b.nu }

// CurrentStep returns the number of completed RK3 steps.
func (b *base) CurrentStep() int { return b.Step }

// CurrentTime returns the simulated time.
func (b *base) CurrentTime() float64 { return b.Time }

// CurrentDt returns the current time step (tracks adaptive stepping).
func (b *base) CurrentDt() float64 { return b.Cfg.Dt }

// SetDt changes the time step; operator caches keyed on dt rebuild lazily on
// the next step.
func (b *base) SetDt(dt float64) { b.Cfg.Dt = dt }

// beginStep opens the bracket around one RK3 step and returns its dt;
// endStep closes it: the step event, the run position, the step histogram
// and the flop credit. A pair rather than a closure, so the bracket adds no
// per-step allocation.
func (b *base) beginStep() float64 {
	b.t0 = time.Now()
	b.trc.BeginStep(int64(b.Step))
	return b.Cfg.Dt
}

func (b *base) endStep(dt float64) {
	b.trc.SetStage(-1)
	b.trc.EndStep(b.t0, time.Now())
	b.Time += dt
	b.Step++
	b.tel.StepDone(time.Since(b.t0))
	b.tel.AddFlops(b.stepFlops)
}
