// Kill-and-resume equivalence: a run interrupted by a checkpoint must
// continue bit-identically — on the same rank count, on a different rank
// count (the re-sharded resume path), and after falling back past a
// corrupted checkpoint. These are the subsystem's acceptance tests, driven
// through the real solver rather than synthetic states.
package ckpt_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

func eqCfg(pa, pb int) core.Config {
	return core.Config{Nx: 16, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1, PA: pa, PB: pb}
}

// snapshot is a decomposition-independent image of the global solver
// state, assembled concurrently by all ranks (each writes its own modes).
type snapshot struct {
	mu     sync.Mutex
	cv, cw map[[2]int][]complex128
	meanU  []float64
	step   int
	time   float64
	dt     float64
}

func newSnapshot() *snapshot {
	return &snapshot{cv: map[[2]int][]complex128{}, cw: map[[2]int][]complex128{}}
}

// collect copies the rank's window out of the solver's checkpoint view:
// fields 0 and 1 are v-hat and omega_y-hat, mean 0 the streamwise profile
// (on the rank that owns the mean).
func (sn *snapshot) collect(s *core.Solver) {
	st := s.CheckpointState()
	sn.mu.Lock()
	defer sn.mu.Unlock()
	w := 0
	for ikx := st.Kxlo; ikx < st.Kxhi; ikx++ {
		for ikz := st.Kzlo; ikz < st.Kzhi; ikz++ {
			k := [2]int{ikx, ikz}
			sn.cv[k] = append([]complex128(nil), st.Fields[0][w]...)
			sn.cw[k] = append([]complex128(nil), st.Fields[1][w]...)
			w++
		}
	}
	if len(st.Means) > 0 {
		sn.meanU = append([]float64(nil), st.Means[0]...)
		sn.step, sn.time, sn.dt = int(st.Step), st.Time, st.Dt
	}
}

// mustEqual demands bit-identical snapshots: every spline coefficient of
// every mode, the mean profile, and the run position.
func mustEqual(t *testing.T, got, want *snapshot, label string) {
	t.Helper()
	if got.step != want.step || got.time != want.time || got.dt != want.dt {
		t.Fatalf("%s: run position step=%d t=%v dt=%v, want step=%d t=%v dt=%v",
			label, got.step, got.time, got.dt, want.step, want.time, want.dt)
	}
	if len(got.cv) != len(want.cv) {
		t.Fatalf("%s: %d modes, want %d", label, len(got.cv), len(want.cv))
	}
	for k, w := range want.cv {
		g, ok := got.cv[k]
		if !ok {
			t.Fatalf("%s: mode (%d,%d) missing", label, k[0], k[1])
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: cv(%d,%d)[%d] = %v, want %v (not bit-identical)",
					label, k[0], k[1], i, g[i], w[i])
			}
		}
		for i, wv := range want.cw[k] {
			if got.cw[k][i] != wv {
				t.Fatalf("%s: cw(%d,%d)[%d] = %v, want %v (not bit-identical)",
					label, k[0], k[1], i, got.cw[k][i], wv)
			}
		}
	}
	for i := range want.meanU {
		if got.meanU[i] != want.meanU[i] {
			t.Fatalf("%s: meanU[%d] = %v, want %v (not bit-identical)",
				label, i, got.meanU[i], want.meanU[i])
		}
	}
}

func initState(s *core.Solver) {
	s.SetLaminar()
	s.Perturb(0.3, 2, 2, 13)
}

// TestResumeBitIdenticalAcrossRankCounts: a P=4 run checkpoints mid-flight
// and the remaining steps are replayed from the checkpoint on 1, 2, 4 and
// 8 ranks; every trajectory must be bit-identical to the uninterrupted
// P=4 reference.
func TestResumeBitIdenticalAcrossRankCounts(t *testing.T) {
	ref := newSnapshot()
	mpi.Run(4, func(c *mpi.Comm) {
		s, err := core.New(c, eqCfg(2, 2))
		if err != nil {
			t.Error(err)
			return
		}
		initState(s)
		core.Advance(s, 6)
		ref.collect(s)
	})
	if t.Failed() {
		t.Fatal("reference run failed")
	}

	dir := t.TempDir()
	mpi.Run(4, func(c *mpi.Comm) {
		s, err := core.New(c, eqCfg(2, 2))
		if err != nil {
			t.Error(err)
			return
		}
		initState(s)
		core.Advance(s, 3)
		if _, err := s.WriteCheckpoint(s.NewCheckpointStore(dir, 0)); err != nil {
			t.Errorf("rank %d: write: %v", c.Rank(), err)
		}
		// The run "dies" here: the solver is discarded mid-flight.
	})
	if t.Failed() {
		t.Fatal("interrupted run failed")
	}

	for _, pg := range []struct{ pa, pb int }{{1, 1}, {1, 2}, {2, 2}, {2, 4}} {
		p := pg.pa * pg.pb
		got := newSnapshot()
		mpi.Run(p, func(c *mpi.Comm) {
			s, err := core.New(c, eqCfg(pg.pa, pg.pb))
			if err != nil {
				t.Error(err)
				return
			}
			name, err := s.ResumeLatest(s.NewCheckpointStore(dir, 0))
			if err != nil {
				t.Errorf("P=%d rank %d: resume: %v", p, c.Rank(), err)
				return
			}
			if name != "step-0000000003" {
				t.Errorf("P=%d: resumed from %q, want step-0000000003", p, name)
			}
			if s.Step != 3 {
				t.Errorf("P=%d: resumed at step %d, want 3", p, s.Step)
			}
			core.Advance(s, 3)
			got.collect(s)
		})
		if t.Failed() {
			t.FailNow()
		}
		mustEqual(t, got, ref, string(rune('0'+p))+" ranks")
	}
}

// TestResumeFallbackAfterCorruption: with two published checkpoints and a
// bit flip in the newest one's shard, auto-resume must fall back to the
// older checkpoint and still reproduce the uninterrupted trajectory
// bit-identically — just replaying more steps.
func TestResumeFallbackAfterCorruption(t *testing.T) {
	dir := t.TempDir()
	ref := newSnapshot()
	var newest string
	mpi.Run(2, func(c *mpi.Comm) {
		s, err := core.New(c, eqCfg(1, 2))
		if err != nil {
			t.Error(err)
			return
		}
		initState(s)
		store := s.NewCheckpointStore(dir, 0)
		core.Advance(s, 2)
		if _, err := s.WriteCheckpoint(store); err != nil {
			t.Errorf("rank %d: write@2: %v", c.Rank(), err)
			return
		}
		core.Advance(s, 2)
		name, err := s.WriteCheckpoint(store)
		if err != nil {
			t.Errorf("rank %d: write@4: %v", c.Rank(), err)
			return
		}
		if c.Rank() == 0 {
			newest = name
		}
		core.Advance(s, 2)
		ref.collect(s)
	})
	if t.Failed() {
		t.FailNow()
	}

	// Silent bit rot lands mid-file in the newest checkpoint's second shard.
	path := filepath.Join(dir, newest, "shard-0001.ckpt")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	got := newSnapshot()
	mpi.Run(2, func(c *mpi.Comm) {
		s, err := core.New(c, eqCfg(1, 2))
		if err != nil {
			t.Error(err)
			return
		}
		name, err := s.ResumeLatest(s.NewCheckpointStore(dir, 0))
		if err != nil {
			t.Errorf("rank %d: resume: %v", c.Rank(), err)
			return
		}
		if name != "step-0000000002" {
			t.Errorf("resumed from %q, want fallback to step-0000000002", name)
		}
		core.Advance(s, 4)
		got.collect(s)
	})
	if t.Failed() {
		t.FailNow()
	}
	mustEqual(t, got, ref, "fallback resume")
}

// TestResumeRestoresAdaptiveDt: AdvanceAdaptive retunes Dt mid-run; the
// checkpoint must carry the adjusted value so the resumed trajectory uses
// the same time step (a prerequisite for bit-identical continuation).
func TestResumeRestoresAdaptiveDt(t *testing.T) {
	dir := t.TempDir()
	var wantDt float64
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := core.New(c, eqCfg(1, 1))
		if err != nil {
			t.Error(err)
			return
		}
		initState(s)
		core.AdvanceAdaptive(s, 4, 0.5, 1)
		wantDt = s.Cfg.Dt
		if _, err := s.WriteCheckpoint(s.NewCheckpointStore(dir, 0)); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if wantDt == 1e-3 {
		t.Log("adaptive advance left Dt unchanged; test still checks the restore path")
	}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := core.New(c, eqCfg(1, 1))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.ResumeLatest(s.NewCheckpointStore(dir, 0)); err != nil {
			t.Errorf("resume: %v", err)
			return
		}
		if s.Cfg.Dt != wantDt {
			t.Errorf("resumed Dt = %v, want the adaptively adjusted %v", s.Cfg.Dt, wantDt)
		}
	})
}
