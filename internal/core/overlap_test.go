package core

import (
	"runtime"
	"sync"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

// TestOverlapBitIdenticalToSerial: the pipelined transpose/FFT path must
// reproduce the serial-exchange path exactly (==, not within tolerance) —
// the consume hooks run the same per-line transforms in the same floating-
// point order, only the communication schedule differs. Covers even and
// uneven decompositions and non-default pipeline depths, including the
// P=1 serial fallback, and the convective and skew forms, whose passes
// carry the i*kz / i*kx derivative lines through the same hooks.
func TestOverlapBitIdenticalToSerial(t *testing.T) {
	cases := []struct {
		name   string
		pa, pb int
		chunks int
		ny     int
		form   Form
	}{
		{"P1-fallback", 1, 1, 0, 24, FormDivergence},
		{"PA1xPB2-uneven", 1, 2, 3, 17, FormDivergence},
		{"PA2xPB1", 2, 1, 0, 24, FormDivergence},
		{"PA2xPB2-uneven", 2, 2, 2, 17, FormDivergence},
		{"PA4xPB1-deep", 4, 1, 64, 24, FormDivergence},
		{"PA2xPB4-uneven", 2, 4, 0, 19, FormDivergence},
		{"PA1xPB2-uneven-convective", 1, 2, 3, 17, FormConvective},
		{"PA2xPB2-uneven-convective", 2, 2, 2, 17, FormConvective},
		{"PA1xPB2-uneven-skew", 1, 2, 3, 17, FormSkewSymmetric},
		{"PA2xPB2-uneven-skew", 2, 2, 2, 17, FormSkewSymmetric},
	}
	const steps = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Nx: 16, Ny: tc.ny, Nz: 16, ReTau: 180, Dt: 1e-3,
				Forcing: 1, PA: tc.pa, PB: tc.pb, Nonlinear: tc.form}
			np := tc.pa * tc.pb
			if np > 1 {
				cfg.Pool = par.NewPool(2)
			}

			run := func(overlap bool) map[[2]int][][2][]complex128 {
				c := cfg
				c.Overlap = overlap
				c.PipelineChunks = tc.chunks
				out := map[[2]int][][2][]complex128{}
				var mu sync.Mutex
				mpi.Run(np, func(w *mpi.Comm) {
					s, err := New(w, c)
					if err != nil {
						t.Error(err)
						return
					}
					s.SetLaminar()
					s.Perturb(0.3, 2, 2, 42)
					Advance(s, steps)
					mu.Lock()
					defer mu.Unlock()
					for wi := 0; wi < s.nw; wi++ {
						ikx, ikz := s.modeOf(wi)
						cv := append([]complex128(nil), s.cv[wi]...)
						cw := append([]complex128(nil), s.cw[wi]...)
						out[[2]int{ikx, ikz}] = append(out[[2]int{ikx, ikz}],
							[2][]complex128{cv, cw})
					}
				})
				return out
			}

			serial := run(false)
			piped := run(true)
			if len(piped) != len(serial) {
				t.Fatalf("mode count mismatch: serial %d, pipelined %d",
					len(serial), len(piped))
			}
			for key, want := range serial {
				got, ok := piped[key]
				if !ok {
					t.Fatalf("mode (%d,%d) missing from pipelined run", key[0], key[1])
				}
				for mi := range want {
					for i := range want[mi][0] {
						if got[mi][0][i] != want[mi][0][i] {
							t.Fatalf("mode (%d,%d) v[%d]: serial %v, pipelined %v",
								key[0], key[1], i, want[mi][0][i], got[mi][0][i])
						}
						if got[mi][1][i] != want[mi][1][i] {
							t.Fatalf("mode (%d,%d) omega[%d]: serial %v, pipelined %v",
								key[0], key[1], i, want[mi][1][i], got[mi][1][i])
						}
					}
				}
			}
		})
	}
}

// TestStepOnceSteadyStateAllocsOverlap: the pipelined path must respect
// the same per-step allocation budget as the serial path. The stream's
// requests, chunk descriptors and consume hooks are all preallocated or
// prebound at construction, so the only additions over the serial step
// are the pool-submission headers of the per-chunk consume calls.
// Measured process-wide across a warm 4-rank overlapped run (ranks are
// goroutines, so testing.AllocsPerRun cannot isolate one rank).
func TestStepOnceSteadyStateAllocsOverlap(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 24, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
		PA: 2, PB: 2, Overlap: true}
	const np, steps = 4, 5
	var perRankStep float64
	mpi.Run(np, func(w *mpi.Comm) {
		s, err := New(w, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		s.SetLaminar()
		s.Perturb(0.2, 2, 2, 13)
		// Warm up: transpose plans, streams, chunk tables, operator cache.
		Advance(s, 2)
		w.Barrier()
		var m0, m1 runtime.MemStats
		if w.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
		w.Barrier()
		Advance(s, steps)
		w.Barrier()
		if w.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perRankStep = float64(m1.Mallocs-m0.Mallocs) / float64(np*steps)
		}
		w.Barrier()
	})
	if perRankStep > stepAllocBudget {
		t.Errorf("overlapped warm step: %.1f allocs per rank-step, budget %d",
			perRankStep, stepAllocBudget)
	}
	t.Logf("overlapped warm step: %.1f allocs per rank-step (budget %d)",
		perRankStep, stepAllocBudget)
}
