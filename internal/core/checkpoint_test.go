package core

import (
	"testing"

	"channeldns/internal/ckpt"
	"channeldns/internal/mpi"
)

// TestLoadCheckpointPreservesBufferIdentity: restoring must copy decoded
// values INTO the solver's existing workspace-arena-backed buffers, not
// swap in freshly allocated slices. The seed assigned the decoder's output
// straight to s.cv/s.cw, silently orphaning the arena and reintroducing
// steady-state allocations after every restart.
func TestLoadCheckpointPreservesBufferIdentity(t *testing.T) {
	cfg := Config{Nx: 8, Ny: 16, Nz: 8, ReTau: 180, Dt: 1e-3, Forcing: 1}
	s := serialSolver(t, cfg)
	s.SetLaminar()
	s.Perturb(0.3, 2, 2, 5)
	dir := t.TempDir()
	if _, err := s.WriteCheckpoint(ckpt.NewStore(dir)); err != nil {
		t.Fatal(err)
	}

	s2 := serialSolver(t, cfg)
	before := [][]complex128{s2.cv[0], s2.cw[0], s2.hgPrev[0], s2.hvPrev[0]}
	meanBefore := s2.meanU
	if _, err := s2.ResumeLatest(ckpt.NewStore(dir)); err != nil {
		t.Fatal(err)
	}
	after := [][]complex128{s2.cv[0], s2.cw[0], s2.hgPrev[0], s2.hvPrev[0]}
	for i := range before {
		if &before[i][0] != &after[i][0] {
			t.Errorf("field %d: restore replaced the buffer instead of copying into it", i)
		}
	}
	if &meanBefore[0] != &s2.meanU[0] {
		t.Error("restore replaced the mean profile buffer")
	}
	// And the copied-into buffers must carry the checkpointed values.
	for i := range s.cv[0] {
		if s2.cv[0][i] != s.cv[0][i] {
			t.Fatalf("cv[0][%d] = %v, want %v", i, s2.cv[0][i], s.cv[0][i])
		}
	}
}

// TestRestoredSolverStaysWithinAllocBudget: the acceptance bar for the
// aliasing fix — a solver restored from a checkpoint (through the full
// store path) must run its warm RK3 step within the same steady-state
// allocation budget as a cold one.
func TestRestoredSolverStaysWithinAllocBudget(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 24, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	dir := t.TempDir()
	var s2 *Solver
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.SetLaminar()
		s.Perturb(0.2, 2, 2, 13)
		Advance(s, 2)
		store := s.NewCheckpointStore(dir, 0)
		if _, err := s.WriteCheckpoint(store); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if s2, err = New(c, cfg); err != nil {
			t.Error(err)
			return
		}
		if _, err := s2.ResumeLatest(s2.NewCheckpointStore(dir, 0)); err != nil {
			t.Errorf("resume: %v", err)
		}
	})
	if t.Failed() {
		return
	}
	Advance(s2, 2) // warm up plans and operator caches post-restore
	allocs := testing.AllocsPerRun(5, func() { s2.StepOnce() })
	if allocs > stepAllocBudget {
		t.Errorf("restored solver StepOnce: %v allocs per step, budget %d", allocs, stepAllocBudget)
	}
	t.Logf("restored solver StepOnce: %v allocs per step (budget %d)", allocs, stepAllocBudget)
}

// TestConfigFingerprint: identity-defining fields move the fingerprint,
// deployment knobs (process grid, time step) do not — that is what lets a
// checkpoint restore onto a different rank count or an adaptively
// adjusted Dt while still rejecting a physically different run.
func TestConfigFingerprint(t *testing.T) {
	base := Config{Nx: 16, Ny: 24, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	fp := base.Fingerprint()
	if fp != base.Fingerprint() {
		t.Fatal("fingerprint is not deterministic")
	}
	same := base
	same.PA, same.PB = 2, 2
	same.Dt = 5e-4
	if same.Fingerprint() != fp {
		t.Error("process grid / Dt changed the fingerprint; checkpoints could not move across rank counts")
	}
	for name, mutate := range map[string]func(*Config){
		"Nx":      func(c *Config) { c.Nx = 32 },
		"ReTau":   func(c *Config) { c.ReTau = 550 },
		"Forcing": func(c *Config) { c.Forcing = 0 },
		"Form":    func(c *Config) { c.Nonlinear = FormSkewSymmetric },
	} {
		diff := base
		mutate(&diff)
		if diff.Fingerprint() == fp {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
}

// TestFingerprintPinned holds three fingerprints to the values computed when
// Config still had its solver-backend flag (PR 19 removed it), so a
// checkpoint written by an older build still passes the store's
// fingerprint check.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"channel", Config{Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}, 0xba50dbe8e9952426},
		{"isotropic", Config{Workload: WorkloadIsotropic, Nx: 16, Ny: 16, Nz: 16, Ly: 3, ReTau: 100, Dt: 1e-3}, 0x21bb6b765e3ca6cc},
		{"scalar", Config{Workload: WorkloadScalar, Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
			Prandtl: 0.7, Nonlinear: FormSkewSymmetric}, 0x7f84251190889e17},
	} {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %#016x, pinned %#016x", tc.name, got, tc.want)
		}
	}
}
