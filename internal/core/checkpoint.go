package core

import (
	"hash/fnv"
	"math"

	"channeldns/internal/ckpt"
	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
)

// Checkpointing: the spectral state (spline coefficients of v-hat and
// omega_y-hat plus the previous-substep nonlinear terms and the mean
// profiles) fully determines a run, so restart files carry exactly that,
// per rank. Production DNS campaigns live and die by restartability (the
// paper's run spans 650,000 steps). The heavy lifting — the versioned
// binary shard format, atomic sharded stores, re-sharded resume and
// corruption recovery — lives in internal/ckpt; this file adapts Solver
// state into a ckpt.State view and back.

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
	u(uint64(c.Degree))
	f(c.Stretch)
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
func (s *Solver) CheckpointState() *ckpt.State {
	st := s.stateHeader()
	st.CV, st.CW, st.HgPrev, st.HvPrev = s.cv, s.cw, s.hgPrev, s.hvPrev
	st.HasMean = s.ownsMean
	st.MeanU, st.MeanW = s.meanU, s.meanW
	st.MeanHxPrev, st.MeanHzPrev = s.meanHxPrev, s.meanHzPrev
	return st
}

// checkpointable is what the shared checkpoint methods need from a solver.
type checkpointable interface {
	World() *mpi.Comm
	Telemetry() *telemetry.Collector
	CheckpointState() *ckpt.State
	applyRestored(st *ckpt.State)
}

// checkpointing implements the checkpoint methods of Workload once. Every
// solver embeds it with self pointing at the outermost workload: Go
// embedding has no virtual dispatch, so the scalar solver re-points the
// embedded channel solver's self at itself and its CheckpointState (flow +
// scalar) is the one that gets written and restored.
type checkpointing struct{ self checkpointable }

// NewCheckpointStore builds this rank's handle on a checkpoint directory,
// wired to the solver's telemetry collector so checkpoint I/O shows up as
// the checkpoint_io phase. keep is the rolling retention count (<= 0
// keeps everything). Every rank must use the same directory.
func (c checkpointing) NewCheckpointStore(dir string, keep int) *ckpt.Store {
	return ckpt.NewStore(dir, ckpt.WithRetention(keep), ckpt.WithTelemetry(c.self.Telemetry()))
}

// WriteCheckpoint collectively publishes one checkpoint of the current
// state to the store. Every rank must call it at the same step. Returns
// the checkpoint name.
func (c checkpointing) WriteCheckpoint(store *ckpt.Store, opts ...ckpt.WriteOption) (string, error) {
	return store.Write(c.self.World(), c.self.CheckpointState(), opts...)
}

// ResumeLatest collectively restores the newest valid checkpoint in the
// store, re-sharding as needed (the checkpoint may have been written on
// any rank count) and falling back past corrupt ones. Returns the name
// restored from, or ckpt.ErrNoCheckpoint when the store holds nothing
// usable.
func (c checkpointing) ResumeLatest(store *ckpt.Store) (string, error) {
	st := c.self.CheckpointState()
	name, err := store.Resume(c.self.World(), st)
	if err != nil {
		return "", err
	}
	c.self.applyRestored(st)
	return name, nil
}
