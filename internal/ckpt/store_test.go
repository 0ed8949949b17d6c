package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
)

// chunk is the contiguous block decomposition the pencil layer uses.
func chunk(n, p, r int) (lo, hi int) { return r * n / p, (r + 1) * n / p }

// rankState builds rank r's kx-sliced window of the canonical test state
// (grid 16x5x6, NKx=8) with the mean profiles on rank 0.
func rankState(p, r int, step int64) *State {
	lo, hi := chunk(8, p, r)
	st := makeState(5, lo, hi, 0, 6, 4, meanIf(r == 0, 4))
	st.Step = step
	st.Time = float64(step) * 0.003
	return st
}

// blankRankState is rankState with zeroed buffers, ready to restore into.
func blankRankState(p, r int) *State {
	full := makeState(5, 0, 8, 0, 6, 4, 4)
	lo, hi := chunk(8, p, r)
	return emptyLike(full, lo, hi, 0, 6, 4, meanIf(r == 0, 4))
}

// shardPath is the file of shard r of the published checkpoint name.
func shardPath(s *Store, name string, r int) string {
	return filepath.Join(s.Dir(), name, shardFileName(r))
}

// flipBit flips bit 0 of the byte at off of the file at path in place: bit
// rot that leaves the size, and the manifest, as they were.
func flipBit(path string, off int64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b[off] ^= 1
	return os.WriteFile(path, b, 0o644)
}

// writeCheckpoint runs one collective Write at size p.
func writeCheckpoint(t *testing.T, s *Store, p int, step int64) (string, error) {
	t.Helper()
	var name string
	var werr error
	mpi.Run(p, func(c *mpi.Comm) {
		n, err := s.Write(c, rankState(p, c.Rank(), step))
		if c.Rank() == 0 {
			name, werr = n, err
		}
	})
	return name, werr
}

// writeMustFail runs one collective Write at size p after blocking the temp
// path of file in the step's directory with a directory, so writeAtomic's
// os.Create fails there for real, and requires Write to fail on every rank.
func writeMustFail(t *testing.T, s *Store, p int, step int64, file string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(s.Dir(), checkpointName(step), file+tmpSuffix), 0o755); err != nil {
		t.Fatal(err)
	}
	mpi.Run(p, func(c *mpi.Comm) {
		if _, err := s.Write(c, rankState(p, c.Rank(), step)); err == nil {
			t.Errorf("rank %d: write with %s blocked reported success", c.Rank(), file)
		}
	})
}

func TestStoreWriteRestoreReShard(t *testing.T) {
	s := NewStore(t.TempDir())
	name, err := writeCheckpoint(t, s, 4, 40)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if name != checkpointName(40) {
		t.Fatalf("checkpoint named %q, want %q", name, checkpointName(40))
	}
	// A P=4 checkpoint must restore bit-identically on 1, 2, 4 and 8 ranks.
	for _, p := range []int{1, 2, 4, 8} {
		mpi.Run(p, func(c *mpi.Comm) {
			dst := blankRankState(p, c.Rank())
			if err := s.Restore(c, name, dst); err != nil {
				t.Errorf("P=%d rank %d: restore: %v", p, c.Rank(), err)
				return
			}
			checkWindow(t, dst)
			if dst.Step != 40 || dst.Time != 40*0.003 || dst.Dt != 0.003 {
				t.Errorf("P=%d rank %d: run position step=%d t=%v dt=%v", p, c.Rank(), dst.Step, dst.Time, dst.Dt)
			}
		})
	}
}

func TestStoreResumePicksNewest(t *testing.T) {
	s := NewStore(t.TempDir())
	for _, step := range []int64{10, 20, 30} {
		if _, err := writeCheckpoint(t, s, 2, step); err != nil {
			t.Fatal(err)
		}
	}
	mpi.Run(2, func(c *mpi.Comm) {
		dst := blankRankState(2, c.Rank())
		name, err := s.Resume(c, dst)
		if err != nil {
			t.Errorf("rank %d: resume: %v", c.Rank(), err)
			return
		}
		if name != checkpointName(30) || dst.Step != 30 {
			t.Errorf("rank %d: resumed %q step %d, want newest step 30", c.Rank(), name, dst.Step)
		}
	})
}

func TestStoreRetention(t *testing.T) {
	s := NewStore(t.TempDir(), WithRetention(2))
	for _, step := range []int64{10, 20, 30, 40} {
		if _, err := writeCheckpoint(t, s, 1, step); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != checkpointName(40) || names[1] != checkpointName(30) {
		t.Fatalf("after 4 writes with keep=2, store holds %v", names)
	}
}

func TestStoreCorruptionFallback(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(s *Store, name string) error
	}{
		{"torn write", func(s *Store, name string) error { return os.Truncate(shardPath(s, name, 1), 100) }},
		{"torn to zero bytes", func(s *Store, name string) error { return os.Truncate(shardPath(s, name, 0), 0) }},
		{"bit flip", func(s *Store, name string) error { return flipBit(shardPath(s, name, 1), 500) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(t.TempDir())
			if _, err := writeCheckpoint(t, s, 2, 10); err != nil {
				t.Fatal(err)
			}
			// The newest checkpoint publishes, then its shard rots on disk.
			newest, err := writeCheckpoint(t, s, 2, 20)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.corrupt(s, newest); err != nil {
				t.Fatal(err)
			}
			name, m, err := s.Latest()
			if err != nil {
				t.Fatalf("latest: %v", err)
			}
			if name != checkpointName(10) || m.Step != 10 {
				t.Fatalf("Latest picked %q (step %d), want fallback to step 10", name, m.Step)
			}
			mpi.Run(2, func(c *mpi.Comm) {
				dst := blankRankState(2, c.Rank())
				got, err := s.Resume(c, dst)
				if err != nil {
					t.Errorf("rank %d: resume: %v", c.Rank(), err)
					return
				}
				if got != checkpointName(10) || dst.Step != 10 {
					t.Errorf("rank %d: resumed %q step %d, want step 10", c.Rank(), got, dst.Step)
					return
				}
				checkWindow(t, dst)
			})
		})
	}
}

func TestStoreAtomicity(t *testing.T) {
	t.Run("manifest loss hides the attempt", func(t *testing.T) {
		s := NewStore(t.TempDir())
		if _, err := writeCheckpoint(t, s, 2, 10); err != nil {
			t.Fatal(err)
		}
		writeMustFail(t, s, 2, 20, ManifestName)
		// Shards landed but without a manifest the checkpoint must not exist.
		dir := filepath.Join(s.Dir(), checkpointName(20))
		for r := 0; r < 2; r++ {
			if _, err := os.Stat(filepath.Join(dir, shardFileName(r))); err != nil {
				t.Fatalf("shard should have landed: %v", err)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
			t.Fatalf("failed attempt has a manifest (err=%v)", err)
		}
		name, _, err := s.Latest()
		if err != nil || name != checkpointName(10) {
			t.Fatalf("Latest = %q, %v; want the previous checkpoint", name, err)
		}
	})
	t.Run("crash during shard write", func(t *testing.T) {
		s := NewStore(t.TempDir())
		if _, err := writeCheckpoint(t, s, 2, 10); err != nil {
			t.Fatal(err)
		}
		writeMustFail(t, s, 2, 20, shardFileName(1))
		dir := filepath.Join(s.Dir(), checkpointName(20))
		if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
			t.Fatalf("crashed attempt has a manifest (err=%v)", err)
		}
		if _, err := os.Stat(filepath.Join(dir, shardFileName(1))); !os.IsNotExist(err) {
			t.Fatalf("failed rank's shard is in place (err=%v)", err)
		}
		name, _, err := s.Latest()
		if err != nil || name != checkpointName(10) {
			t.Fatalf("Latest = %q, %v; want the previous checkpoint", name, err)
		}
		// The next successful write sweeps the stale attempt.
		if _, err := writeCheckpoint(t, s, 2, 30); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("stale torn attempt survived the next write (err=%v)", err)
		}
	})
}

// TestStoreFailedWriteLeavesNoTemp: a shard whose rename fails (a
// non-empty directory squats on its final path) fails Write on every rank,
// and its temp file goes with the failure: on a full disk no later write
// would succeed to prune it.
func TestStoreFailedWriteLeavesNoTemp(t *testing.T) {
	s := NewStore(t.TempDir())
	dir := filepath.Join(s.Dir(), checkpointName(20))
	if err := os.MkdirAll(filepath.Join(dir, shardFileName(1), "squat"), 0o755); err != nil {
		t.Fatal(err)
	}
	mpi.Run(2, func(c *mpi.Comm) {
		if _, err := s.Write(c, rankState(2, c.Rank(), 20)); err == nil {
			t.Errorf("rank %d: write with shard 1's rename blocked reported success", c.Rank())
		}
	})
	tmps, err := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix))
	if err != nil || len(tmps) != 0 {
		t.Errorf("failed write left %v (err %v)", tmps, err)
	}
}

func TestStoreEverythingCorruptIsErrNoCheckpoint(t *testing.T) {
	s := NewStore(t.TempDir())
	name, err := writeCheckpoint(t, s, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := flipBit(shardPath(s, name, 0), 200); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on all-corrupt store: %v, want ErrNoCheckpoint", err)
	}
	mpi.Run(2, func(c *mpi.Comm) {
		dst := blankRankState(2, c.Rank())
		if _, err := s.Resume(c, dst); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("rank %d: resume on all-corrupt store: %v, want ErrNoCheckpoint", c.Rank(), err)
		}
	})
}

func TestStoreResumeEmpty(t *testing.T) {
	s := NewStore(filepath.Join(t.TempDir(), "never-created"))
	mpi.Run(1, func(c *mpi.Comm) {
		dst := blankRankState(1, c.Rank())
		if _, err := s.Resume(c, dst); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("resume on empty store: %v, want ErrNoCheckpoint", err)
		}
	})
}

func TestStoreRejectsForeignFingerprint(t *testing.T) {
	s := NewStore(t.TempDir())
	name, err := writeCheckpoint(t, s, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	mpi.Run(1, func(c *mpi.Comm) {
		dst := blankRankState(1, 0)
		dst.Fingerprint++ // a different physical configuration
		if err := s.Restore(c, name, dst); err == nil {
			t.Error("restore into a foreign configuration succeeded")
		}
		if _, err := s.Resume(c, dst); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("resume into a foreign configuration: %v, want ErrNoCheckpoint", err)
		}
	})
}

func TestStoreTelemetry(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	mpi.Run(2, func(c *mpi.Comm) {
		s := NewStore(dir, WithTelemetry(reg.Rank(c.Rank())))
		if _, err := s.Write(c, rankState(2, c.Rank(), 10)); err != nil {
			t.Errorf("rank %d: write: %v", c.Rank(), err)
			return
		}
		dst := blankRankState(2, c.Rank())
		if _, err := s.Resume(c, dst); err != nil {
			t.Errorf("rank %d: resume: %v", c.Rank(), err)
		}
	})
	for r := 0; r < 2; r++ {
		col := reg.Rank(r)
		spans := col.PhaseCalls(telemetry.PhaseCheckpoint)
		calls, msgs, bytes := col.CommCounts(telemetry.CommCheckpoint)
		if spans == 0 || bytes == 0 {
			t.Errorf("rank %d: checkpoint I/O invisible to telemetry (spans=%d bytes=%d)", r, spans, bytes)
		}
		if calls != spans || msgs != calls {
			t.Errorf("rank %d: %d spans vs %d comm records (want 1:1)", r, spans, calls)
		}
	}
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStoreStreamsShards holds a write and a resume of a 4.3 MB state to
// a fixed window: neither may build or read the shard as one image (a
// write did, and a resume read every shard twice, once to verify it and
// once to restore it).
func TestStoreStreamsShards(t *testing.T) {
	const budget = 512 << 10
	src := makeState(1400, 0, 8, 0, 6, 4, 4)
	dst := emptyLike(src, 0, 8, 0, 6, 4, 4)
	size := shardSize(src.NW(), src.Ny, 4, 4)
	if size < 4<<20 {
		t.Fatalf("state of %d bytes is too small to tell a window from an image", size)
	}
	s := NewStore(t.TempDir())
	mpi.Run(1, func(c *mpi.Comm) {
		var err error
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"write", func() { _, err = s.Write(c, src) }},
			{"resume", func() { _, err = s.Resume(c, dst) }},
		} {
			n := allocated(op.run)
			t.Logf("%s of a %d-byte shard allocated %d bytes", op.name, size, n)
			if err != nil || n >= budget {
				t.Errorf("%s of a %d-byte shard allocated %d bytes (budget %d): %v", op.name, size, n, budget, err)
			}
		}
	})
	checkWindow(t, dst)
}

// TestStoreRestoreRefusesShardChangedAfterVerify damages a shard between
// Verify and Restore: the restoring ranks decode it while its CRC32C is
// recomputed, so Restore must fail on every rank, the one whose shard is
// intact included.
func TestStoreRestoreRefusesShardChangedAfterVerify(t *testing.T) {
	s := NewStore(t.TempDir())
	name, err := writeCheckpoint(t, s, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Verify(name); err != nil {
		t.Fatalf("fresh checkpoint fails verify: %v", err)
	}
	if err := flipBit(shardPath(s, name, 1), 500); err != nil {
		t.Fatal(err)
	}
	mpi.Run(2, func(c *mpi.Comm) {
		if err := s.Restore(c, name, blankRankState(2, c.Rank())); err == nil {
			t.Errorf("rank %d: restore of a shard changed after Verify succeeded", c.Rank())
		}
	})
}
