// Package ckpt is the checkpoint/restart subsystem: versioned, sharded,
// atomically published snapshots of the distributed solver state, and the
// re-sharded resume path that restores them on any rank count.
//
// Production DNS campaigns live and die by restartability — the paper's
// Re_tau=5200 run spans ~650,000 RK3 steps — so the subsystem treats
// restart files as first-class artifacts with explicit failure semantics:
//
//   - Each rank writes one self-describing binary shard (magic, format
//     version, config fingerprint, the workload's fields and mean profiles
//     little-endian, CRC32C trailer) covering exactly its owned wavenumber
//     window.
//   - Shards are written to a temporary name, fsynced, then renamed; after
//     every shard has landed, rank 0 writes a manifest listing each shard
//     with its checksum, again via temp + fsync + rename. A checkpoint
//     EXISTS only once its manifest lands — a crash at any earlier point
//     leaves the previous checkpoint untouched and the torn attempt
//     invisible to discovery.
//   - Resume maps each restoring rank's owned wavenumber ranges onto the
//     manifest's shard ranges and decodes exactly the overlapping slices, so
//     a run checkpointed on P ranks restores bit-identically on any other
//     rank count.
//   - A shard streams through one fixed 64 KiB window whether it is
//     written, verified or restored: EncodeShard folds each chunk into the
//     CRC32C as it goes out, Verify passes the body through the CRC, and
//     Restore decodes each line in file order straight into the solver's
//     slices while the CRC is recomputed. No second image of the state is
//     ever held. A shard whose CRC fails at restore (it changed after
//     Verify) fails Restore on every rank, and Resume falls back.
//   - A Store owns a directory of checkpoints with rolling retention and
//     corruption-aware discovery: Latest skips manifests whose shards are
//     missing, truncated or fail their CRC, falling back to the newest
//     good checkpoint, and Resume re-verifies at read time.
//
// The package sits below internal/core (which adapts solver state into a
// State and back) and above internal/mpi (shard writes are collective over
// the world communicator). Checkpoint I/O is telemetry-visible: every
// shard or manifest transfer is a PhaseCheckpoint span paired with one
// CommCheckpoint byte-count record.
package ckpt

import (
	"errors"
	"fmt"
)

// FormatVersion is the shard/manifest format generation. Bump it when the
// binary layout changes incompatibly; readers reject other versions.
const FormatVersion = 1

// ErrNoCheckpoint is returned by Latest and Resume when the store directory
// holds no valid checkpoint (empty, missing, or everything corrupt).
var ErrNoCheckpoint = errors.New("ckpt: no valid checkpoint")

// State is one rank's checkpointable solver state: the workload's fields
// (spectral coefficients and previous-substep terms) for every locally owned
// wavenumber, and its mean profiles on the rank that owns the (0,0) mode.
// The slices alias caller-owned storage in both directions — writes read
// from them, restores copy INTO them — so the solver's
// workspace-arena-backed buffers survive a restore.
type State struct {
	// Workload names the registered scenario (core.WorkloadNames) that
	// produced this state. Checkpoints restore only into the same
	// workload; a mismatch is a structural error, not a fallback case.
	Workload string

	// Global grid extents and the one-sided x mode count.
	Nx, Ny, Nz int
	NKx        int

	// This rank's owned wavenumber window: one-sided kx in [Kxlo, Kxhi),
	// wrapped kz in [Kzlo, Kzhi).
	Kxlo, Kxhi, Kzlo, Kzhi int

	// Run position. Dt is carried so an adaptively adjusted time step
	// survives a restart (required for bit-identical trajectories).
	Step int64
	Time float64
	Dt   float64

	// MaxAbs holds the per-y maxima of |u|, |v| and |w| (3 x Ny, u's first)
	// of the workload's last harvesting pass, folded over every rank, or
	// nothing: what an adaptive dt decision after a restore reads. Rank 0's
	// manifest carries them, and Restore hands them to every rank.
	MaxAbs []float64

	// Fingerprint is a stable hash of the identity-defining configuration
	// (grid, physics, discretization — NOT the process grid or Dt).
	// Checkpoints only restore into a matching configuration.
	Fingerprint uint64

	// Fields are the complex spectral fields in shard order, each indexed
	// [w][iy] with w = (ikx-Kxlo)*(Kzhi-Kzlo) + (ikz-Kzlo); a shard carries
	// at least four. Means are the real mean profiles of length Ny, empty
	// off the rank that owns the (0,0) mode and otherwise at least four.
	Fields [][][]complex128
	Means  [][]float64
}

// NW returns the local mode count of the window.
func (st *State) NW() int {
	return (st.Kxhi - st.Kxlo) * (st.Kzhi - st.Kzlo)
}

// validate checks the window and slice shapes agree.
func (st *State) validate() error {
	if st.Nx <= 0 || st.Ny <= 0 || st.Nz <= 0 || st.NKx <= 0 {
		return fmt.Errorf("ckpt: bad grid %dx%dx%d (nkx %d)", st.Nx, st.Ny, st.Nz, st.NKx)
	}
	if st.Kxlo < 0 || st.Kxhi > st.NKx || st.Kxlo > st.Kxhi ||
		st.Kzlo < 0 || st.Kzhi > st.Nz || st.Kzlo > st.Kzhi {
		return fmt.Errorf("ckpt: window kx[%d,%d) kz[%d,%d) outside grid (nkx %d, nz %d)",
			st.Kxlo, st.Kxhi, st.Kzlo, st.Kzhi, st.NKx, st.Nz)
	}
	if len(st.Fields) < v1Lists || (len(st.Means) > 0 && len(st.Means) < v1Lists) {
		return fmt.Errorf("ckpt: %d fields and %d mean profiles, a shard carries at least %d of each (or no means)",
			len(st.Fields), len(st.Means), v1Lists)
	}
	nw := st.NW()
	for _, f := range st.Fields {
		if len(f) != nw {
			return fmt.Errorf("ckpt: field carries %d modes, window owns %d", len(f), nw)
		}
		for _, line := range f {
			if len(line) != st.Ny {
				return fmt.Errorf("ckpt: mode line length %d, want Ny=%d", len(line), st.Ny)
			}
		}
	}
	for _, m := range st.Means {
		if len(m) != st.Ny {
			return fmt.Errorf("ckpt: mean profile length %d, want Ny=%d", len(m), st.Ny)
		}
	}
	return nil
}
