package core

import (
	"fmt"
	"math"
	"testing"

	"channeldns/internal/ckpt"
	"channeldns/internal/mpi"
)

// resumeObs is what a driver can see of a workload between steps.
type resumeObs struct {
	cfl, dt uint64 // bits
	status  string
	state   uint64 // stateDigest of this rank's checkpoint state
}

func (o resumeObs) String() string {
	return fmt.Sprintf("CFL %v, dt %v, state %#x, %q",
		math.Float64frombits(o.cfl), math.Float64frombits(o.dt), o.state, o.status)
}

func observeResume(wl Workload) resumeObs {
	st := wl.(interface{ CheckpointState() *ckpt.State }).CheckpointState()
	return resumeObs{math.Float64bits(wl.CFLEstimate()), math.Float64bits(wl.CurrentDt()), wl.StatusLine(), stateDigest(st)}
}

// TestResumeMatchesStraightRun: a run checkpointed halfway and resumed into a
// fresh solver continues the straight run to the bit, at a fixed dt and under
// AdvanceAdaptive (target 0.8, checked every 5 steps), whose first dt
// decision after the resume reads CFLEstimate. Right after the restore and
// after every later step the resumed solver's CFLEstimate, CurrentDt,
// StatusLine and state digest equal the straight run's at the same step, on
// every rank.
func TestResumeMatchesStraightRun(t *testing.T) {
	const n = 10
	for _, workload := range []string{WorkloadChannel, WorkloadScalar, WorkloadIsotropic} {
		for _, grid := range [][2]int{{1, 1}, {1, 2}} {
			for _, adaptive := range []bool{false, true} {
				mode := "fixed"
				if adaptive {
					mode = "adaptive"
				}
				t.Run(fmt.Sprintf("%s-%dx%d-%s", workload, grid[0], grid[1], mode), func(t *testing.T) {
					cfg := Config{Workload: workload, Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
						PA: grid[0], PB: grid[1]}
					if workload == WorkloadIsotropic {
						cfg.Ny, cfg.Forcing = 16, 0
					}
					dir := t.TempDir()
					mpi.Run(grid[0]*grid[1], func(c *mpi.Comm) {
						build := func() Workload {
							wl, err := NewWorkload(c, cfg)
							if err != nil {
								panic(err) // the grid is valid on every row
							}
							return wl
						}
						step := func(wl Workload) {
							if adaptive {
								AdvanceAdaptive(wl, 1, 0.8, 5)
							} else {
								wl.StepOnce()
							}
						}

						straight := build()
						straight.InitDefault(0.3, 1)
						var want []resumeObs
						for {
							if straight.CurrentStep() >= n/2 {
								want = append(want, observeResume(straight))
							}
							if straight.CurrentStep() == n {
								break
							}
							step(straight)
						}

						first := build()
						first.InitDefault(0.3, 1)
						for first.CurrentStep() < n/2 {
							step(first)
						}
						if _, err := first.WriteCheckpoint(first.NewCheckpointStore(dir, 0)); err != nil {
							t.Errorf("rank %d: write: %v", c.Rank(), err)
							return
						}
						resumed := build()
						if _, err := resumed.ResumeLatest(resumed.NewCheckpointStore(dir, 0)); err != nil {
							t.Errorf("rank %d: resume: %v", c.Rank(), err)
							return
						}
						failed := false
						for i, w := range want {
							if got := observeResume(resumed); got != w && !failed {
								failed = true
								t.Errorf("rank %d, step %d: resumed run reads\n  %v\nstraight run reads\n  %v",
									c.Rank(), n/2+i, got, w)
							}
							if i < len(want)-1 {
								step(resumed)
							}
						}
					})
				})
			}
		}
	}
}
