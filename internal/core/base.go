package core

import (
	"sync"
	"time"

	"channeldns/internal/ckpt"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/parfft"
	"channeldns/internal/pencil"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// base is the skeleton every workload shares: configuration, grid, pencil
// decomposition and local (kx, kz) window, the instrumentation attach, the
// run position with the bracket around one RK3 step, the harvested physical
// maxima, and the Workload accessors and checkpoint plumbing that depend on
// nothing else. Solver and IsoSolver embed it and supply only their physics
// (ScalarSolver reaches it through its *Solver).
type base struct {
	checkpointing

	Cfg Config
	G   Grid
	D   *pencil.Decomp
	nu  float64

	// Local wavenumber window (y-pencil): one-sided kx and wrapped kz.
	kxlo, kxhi, kzlo, kzhi int
	nw                     int // (kxhi-kxlo)*(kzhi-kzlo)

	// Per-y maxima of |u|, |v|, |w| on the physical grid, harvested for
	// free during the most recent nonlinear evaluation (local to this
	// rank's y range; zero elsewhere). Used by CFLEstimate.
	physMaxMu      sync.Mutex
	physMax        [3][]float64
	physMaxCurrent bool

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
	for c := range b.physMax {
		b.physMax[c] = make([]float64, cfg.Ny)
	}
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

// oneSided is the Parseval weight of a one-sided kx mode: the kx > 0 modes
// stand for their conjugate partners too.
func oneSided(ikx int) float64 {
	if ikx == 0 {
		return 1
	}
	return 2
}

// pool returns the worker pool; a nil *par.Pool runs serially.
func (b *base) pool() *par.Pool { return b.Cfg.Pool }

// World returns the full communicator backing the process grid.
func (b *base) World() *mpi.Comm { return b.D.Cart.Comm }

// Telemetry returns this rank's collector (nil when Config.Telemetry was
// not set).
func (b *base) Telemetry() *telemetry.Collector { return b.tel }

// Nu returns the kinematic viscosity 1/ReTau.
func (b *base) Nu() float64 { return b.nu }

// WorkloadName returns the workload stamped into the configuration.
func (b *base) WorkloadName() string { return b.Cfg.Workload }

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

// harvest publishes the physical velocity maxima of the excursion pass that
// just ran, for CFLEstimate.
func (b *base) harvest(exc *parfft.Excursion) {
	b.physMaxMu.Lock()
	for c, m := range exc.MaxAbs() {
		copy(b.physMax[c], m)
	}
	b.physMaxCurrent = true
	b.physMaxMu.Unlock()
}

// harvested returns a copy of the harvested per-y maxima and whether a
// nonlinear pass has produced them since the last restore; when it has not,
// the lines are zero, ready for the spectral fallback bound to sum into.
func (b *base) harvested() (m [3][]float64, current bool) {
	b.physMaxMu.Lock()
	defer b.physMaxMu.Unlock()
	for c := range m {
		m[c] = make([]float64, len(b.physMax[c]))
		if b.physMaxCurrent {
			copy(m[c], b.physMax[c])
		}
	}
	return m, b.physMaxCurrent
}

// stateHeader returns the workload-independent part of this rank's
// checkpoint state: identity, window and run position.
func (b *base) stateHeader() *ckpt.State {
	return &ckpt.State{
		Workload: b.Cfg.Workload,
		Nx:       b.Cfg.Nx, Ny: b.Cfg.Ny, Nz: b.Cfg.Nz, NKx: b.G.NKx(),
		Kxlo: b.kxlo, Kxhi: b.kxhi, Kzlo: b.kzlo, Kzhi: b.kzhi,
		Step: int64(b.Step), Time: b.Time, Dt: b.Cfg.Dt,
		Fingerprint: b.Cfg.Fingerprint(),
	}
}

// applyRestored adopts a restored run position: clock, step count and the
// (possibly adaptively adjusted) time step. Operator caches rebuild lazily
// on the next step if Dt changed, and the cached physical-space maxima are
// stale by definition.
func (b *base) applyRestored(st *ckpt.State) {
	b.Time, b.Step = st.Time, int(st.Step)
	b.Cfg.Dt = st.Dt
	b.physMaxCurrent = false
}
