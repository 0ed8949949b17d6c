package run

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"channeldns/internal/ckpt"
	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// The three registered workloads at the smallest grids their tests use,
// on a 1x2 process grid so every collective in the driver has a peer.
var workloads = []core.Config{
	{Workload: core.WorkloadChannel, Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1, PA: 1, PB: 2},
	{Workload: core.WorkloadIsotropic, Nx: 16, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, PA: 1, PB: 2},
	{Workload: core.WorkloadScalar, Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1, PA: 1, PB: 2},
}

const (
	amp  = 0.3
	seed = 1
)

// onRanks runs body on every rank of cfg's process grid with a fresh
// workload.
func onRanks(t *testing.T, cfg core.Config, body func(c *mpi.Comm, wl core.Workload)) {
	t.Helper()
	mpi.Run(cfg.PA*cfg.PB, func(c *mpi.Comm) {
		wl, err := core.NewWorkload(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		body(c, wl)
	})
}

// image is this rank's complete run state (fields, step, time, dt) as the
// bytes of one checkpoint shard: equal images are exact-== states.
func image(t *testing.T, wl core.Workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	st := wl.(interface{ CheckpointState() *ckpt.State }).CheckpointState()
	if _, _, err := ckpt.EncodeShard(&buf, st); err != nil {
		t.Error(err)
	}
	return buf.Bytes()
}

// flipMidByte flips bit 0 of the middle byte of the file at path: bit rot
// that leaves the size, and the checkpoint's manifest, as they were.
func flipMidByte(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b[len(b)/2] ^= 1
	return os.WriteFile(path, b, 0o644)
}

// stopAt asks the run to stop when it reaches step n.
func stopAt(wl core.Workload, n int) func() bool {
	return func() bool { return wl.CurrentStep() == n }
}

// TestStopResumeBitIdentical: a fixed-dt run parked through the stop hook
// at a step that is on no cadence, then picked up by a second driver on a
// fresh workload, ends exactly where the uninterrupted run does.
func TestStopResumeBitIdentical(t *testing.T) {
	const target, stopStep = 7, 3
	for _, cfg := range workloads {
		cfg := cfg
		t.Run(cfg.Workload, func(t *testing.T) {
			dir := t.TempDir()
			want := make([][]byte, cfg.PA*cfg.PB)
			onRanks(t, cfg, func(c *mpi.Comm, wl core.Workload) {
				d := &Driver{WL: wl}
				if _, err := d.Start(true, amp, seed); err != nil {
					t.Error(err)
				}
				if stopped, err := d.RunTo(target); err != nil || stopped {
					t.Errorf("straight run: stopped %v, err %v", stopped, err)
				}
				want[c.Rank()] = image(t, wl)
			})
			onRanks(t, cfg, func(c *mpi.Comm, wl core.Workload) {
				d := &Driver{WL: wl, Store: wl.NewCheckpointStore(dir, 0), CkptEvery: 2, ShouldStop: stopAt(wl, stopStep)}
				if name, err := d.Start(true, amp, seed); err != nil || name != "" {
					t.Errorf("fresh store: resumed %q, err %v", name, err)
				}
				if stopped, err := d.RunTo(target); err != nil || !stopped || wl.CurrentStep() != stopStep {
					t.Errorf("parked run: stopped %v at step %d, err %v", stopped, wl.CurrentStep(), err)
				}
			})
			onRanks(t, cfg, func(c *mpi.Comm, wl core.Workload) {
				d := &Driver{WL: wl, Store: wl.NewCheckpointStore(dir, 0), CkptEvery: 2}
				name, err := d.Start(true, amp, seed)
				if err != nil || wl.CurrentStep() != stopStep {
					t.Errorf("resumed %q at step %d, err %v", name, wl.CurrentStep(), err)
				}
				if _, err := d.RunTo(target); err != nil {
					t.Error(err)
				}
				if !bytes.Equal(image(t, wl), want[c.Rank()]) {
					t.Errorf("rank %d: resumed run differs from the uninterrupted run", c.Rank())
				}
			})
		})
	}
}

// TestCheckpointCadence: checkpoints land on absolute multiples of
// CkptEvery, at the target step and before a park — each step once.
func TestCheckpointCadence(t *testing.T) {
	cfg := workloads[0]
	cases := []struct {
		name     string
		target   int
		stopStep int // 0: run to the target
		want     string
	}{
		{"target off cadence", 7, 0, "[3 6 7]"},
		{"target on cadence", 6, 0, "[3 6]"},
		{"park off cadence", 9, 4, "[3 4]"},
		{"park on cadence", 9, 3, "[3]"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			onRanks(t, cfg, func(c *mpi.Comm, wl core.Workload) {
				var steps []int
				d := &Driver{WL: wl, Store: wl.NewCheckpointStore(dir, 0), CkptEvery: 3,
					Checkpointed: func(string) { steps = append(steps, wl.CurrentStep()) }}
				if tc.stopStep > 0 {
					d.ShouldStop = stopAt(wl, tc.stopStep)
				}
				if _, err := d.Start(true, amp, seed); err != nil {
					t.Error(err)
				}
				if _, err := d.RunTo(tc.target); err != nil {
					t.Error(err)
				}
				if got := fmt.Sprint(steps); got != tc.want {
					t.Errorf("rank %d: checkpoints at steps %s, want %s", c.Rank(), got, tc.want)
				}
				names, err := d.Store.Checkpoints()
				if c.Rank() == 0 && (err != nil || len(names) != len(steps)) {
					t.Errorf("store holds %v (err %v) after writes at steps %v", names, err, steps)
				}
			})
		})
	}
}

// TestStartAndTargets: a fresh store falls through to InitDefault; a
// corrupt newest checkpoint falls back to the one before it; from there
// the cmd/dns target (resumed step + steps) and the dnsserve target (the
// job's absolute step count) each stop where they say, and a target
// already reached takes no step and rewrites nothing.
func TestStartAndTargets(t *testing.T) {
	cfg := workloads[0]
	cases := []struct {
		name       string
		target     func(resumed int) int
		wantStep   int
		wantWrites int
	}{
		{"dns: 3 more steps", func(resumed int) int { return resumed + 3 }, 5, 1},
		{"dnsserve: to step 4", func(int) int { return 4 }, 4, 1},
		{"already there", func(int) int { return 2 }, 2, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			onRanks(t, cfg, func(c *mpi.Comm, wl core.Workload) {
				d := &Driver{WL: wl, Store: wl.NewCheckpointStore(dir, 0), CkptEvery: 2}
				name, err := d.Start(true, amp, seed)
				if err != nil || name != "" || wl.CurrentStep() != 0 {
					t.Errorf("fresh store: resumed %q at step %d, err %v", name, wl.CurrentStep(), err)
				}
				ref, err := core.NewWorkload(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				ref.InitDefault(amp, seed)
				if !bytes.Equal(image(t, wl), image(t, ref)) {
					t.Errorf("rank %d: fresh start is not InitDefault", c.Rank())
				}
				if _, err := d.RunTo(4); err != nil {
					t.Error(err)
				}
				c.Barrier()
				if c.Rank() == 0 {
					if err := flipMidByte(filepath.Join(d.Store.Dir(), "step-0000000004", "shard-0000.ckpt")); err != nil {
						t.Error(err)
					}
				}
			})
			onRanks(t, cfg, func(c *mpi.Comm, wl core.Workload) {
				writes := 0
				d := &Driver{WL: wl, Store: wl.NewCheckpointStore(dir, 0), Checkpointed: func(string) { writes++ }}
				name, err := d.Start(true, amp, seed)
				if err != nil || name != "step-0000000002" || wl.CurrentStep() != 2 {
					t.Errorf("corrupt newest: resumed %q at step %d, err %v", name, wl.CurrentStep(), err)
					return
				}
				if _, err := d.RunTo(tc.target(wl.CurrentStep())); err != nil {
					t.Error(err)
				}
				if wl.CurrentStep() != tc.wantStep || writes != tc.wantWrites {
					t.Errorf("rank %d: ended at step %d after %d checkpoints, want step %d after %d",
						c.Rank(), wl.CurrentStep(), writes, tc.wantStep, tc.wantWrites)
				}
			})
		})
	}
}

// TestAdaptiveChunkInvariance: the adaptive dt check is keyed on the
// absolute step, so 3+7 steps, 10 steps, and the driver's step-at-a-time
// loop all walk the same trajectory — exact == on dt and state. The start
// dt is far below the CFL target, so dt is rescaled at steps 0 and 5.
func TestAdaptiveChunkInvariance(t *testing.T) {
	const cfl = 0.8
	for _, cfg := range workloads {
		cfg := cfg
		cfg.Dt = 1e-4
		t.Run(cfg.Workload, func(t *testing.T) {
			var want [][]byte
			for i, advance := range []func(wl core.Workload){
				func(wl core.Workload) { core.AdvanceAdaptive(wl, 10, cfl, cflCheckEvery) },
				func(wl core.Workload) {
					core.AdvanceAdaptive(wl, 3, cfl, cflCheckEvery)
					core.AdvanceAdaptive(wl, 7, cfl, cflCheckEvery)
				},
				func(wl core.Workload) {
					d := &Driver{WL: wl, TargetCFL: cfl}
					for _, target := range []int{3, 10} {
						if _, err := d.RunTo(target); err != nil {
							t.Error(err)
						}
					}
				},
			} {
				got := make([][]byte, cfg.PA*cfg.PB)
				onRanks(t, cfg, func(c *mpi.Comm, wl core.Workload) {
					wl.InitDefault(amp, seed)
					advance(wl)
					if wl.CurrentDt() == cfg.Dt {
						t.Errorf("dt never adapted: the test does not exercise the cadence")
					}
					got[c.Rank()] = image(t, wl)
				})
				if i == 0 {
					want = got
					continue
				}
				for r := range got {
					if !bytes.Equal(got[r], want[r]) {
						t.Errorf("chunking %d, rank %d: trajectory differs from the single 10-step advance", i, r)
					}
				}
			}
		})
	}
}
