package core

import (
	"hash/fnv"
	"math"
	"slices"

	"channeldns/internal/ckpt"
	"channeldns/internal/mpi"
)

// Checkpointing: a workload's spectral fields, previous-substep terms and
// mean profiles fully determine its run, so restart files carry exactly
// those, per rank. Each constructor lists them once in base.fields and
// base.means. Production DNS campaigns live and die by restartability (the
// paper's run spans 650,000 steps). The heavy lifting — the versioned
// binary shard format, atomic sharded stores, re-sharded resume and
// corruption recovery — lives in internal/ckpt; this file adapts the lists
// into a ckpt.State view and back.

// Fingerprint is a stable hash of the identity-defining configuration:
// the grid, domain, physics and discretization choices that determine
// whether two runs compute the same trajectory. The process grid (PA, PB),
// worker pool, Dt (adaptive runs change it mid-flight) and instrumentation
// hooks are deliberately excluded — a checkpoint moves freely across those.
func (c Config) Fingerprint() uint64 {
	c.fillDefaults()
	h := fnv.New64a()
	u := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	h.Write([]byte(c.Workload))
	u(uint64(c.Nx))
	u(uint64(c.Ny))
	u(uint64(c.Nz))
	f(c.Lx)
	f(c.Lz)
	f(c.Ly)
	f(c.Prandtl)
	f(c.ReTau)
	u(degree)
	f(stretch)
	b(c.DisableNonlinear)
	f(c.Forcing)
	u(uint64(c.Nonlinear))
	u(0) // slot of a removed solver-backend flag: checkpoints written while it existed still resume
	return h.Sum64()
}

// CheckpointState returns this rank's state as a ckpt.State whose slices
// ALIAS the solver's buffers: writing a checkpoint reads them in place,
// and restoring through it copies decoded values back into the same
// workspace-arena-backed storage (no buffer identity changes, so the
// steady-state allocation discipline survives a restore).
func (b *base) CheckpointState() *ckpt.State {
	st := &ckpt.State{
		Workload: b.Cfg.Workload,
		Nx:       b.Cfg.Nx, Ny: b.Cfg.Ny, Nz: b.Cfg.Nz, NKx: b.G.NKx(),
		Kxlo: b.kxlo, Kxhi: b.kxhi, Kzlo: b.kzlo, Kzhi: b.kzhi,
		Step: int64(b.Step), Time: b.Time, Dt: b.Cfg.Dt,
		Fingerprint: b.Cfg.Fingerprint(),
	}
	for _, f := range b.fields {
		st.Fields = append(st.Fields, *f)
	}
	for _, m := range b.means {
		st.Means = append(st.Means, *m)
	}
	return st
}

// NewCheckpointStore builds this rank's handle on a checkpoint directory,
// wired to the solver's telemetry collector so checkpoint I/O shows up as
// the checkpoint_io phase. keep is the rolling retention count (<= 0
// keeps everything). Every rank must use the same directory.
func (b *base) NewCheckpointStore(dir string, keep int) *ckpt.Store {
	return ckpt.NewStore(dir, ckpt.WithRetention(keep), ckpt.WithTelemetry(b.tel))
}

// WriteCheckpoint collectively publishes one checkpoint of the current
// state to the store, with the velocity maxima CFLEstimate reads when a
// pass has harvested them. Every rank must call it at the same step.
// Returns the checkpoint name.
func (b *base) WriteCheckpoint(store *ckpt.Store) (string, error) {
	st := b.CheckpointState()
	if b.maxCurrent {
		m := b.exc.MaxAbs()
		st.MaxAbs = mpi.Allreduce(b.World(), mpi.OpMax, slices.Concat(m[0], m[1], m[2]))
	}
	return store.Write(b.World(), st)
}

// ResumeLatest collectively restores the newest valid checkpoint in the
// store, re-sharding as needed (the checkpoint may have been written on
// any rank count) and falling back past corrupt ones, and adopts its run
// position: clock, step count, the (possibly adaptively adjusted) time step
// and the velocity maxima, so CFLEstimate reads what it read on the solver
// that wrote the checkpoint. Every rank holds every y of them until the next
// harvesting pass overwrites them. Operator caches rebuild lazily on the
// next step if Dt changed. Returns the name restored from, or
// ckpt.ErrNoCheckpoint when the store holds nothing usable.
func (b *base) ResumeLatest(store *ckpt.Store) (string, error) {
	st := b.CheckpointState()
	name, err := store.Resume(b.World(), st)
	if err != nil {
		return "", err
	}
	b.Time, b.Step, b.Cfg.Dt = st.Time, int(st.Step), st.Dt
	b.maxCurrent = len(st.MaxAbs) > 0
	if b.maxCurrent {
		for c, m := range b.exc.MaxAbs() {
			copy(m, st.MaxAbs[c*len(m):])
		}
	}
	return name, nil
}
