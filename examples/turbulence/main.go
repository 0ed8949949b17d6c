// Turbulence: a miniature version of the paper's science run (Figures 5
// and 6). A perturbed laminar channel at ReTau = 180 transitions toward
// turbulence while statistics accumulate; the averaged mean profile is
// printed in wall units against the Reichardt law-of-the-wall, and the
// Reynolds stresses against their exact constraints.
//
// At publication scale the paper integrates 650,000 steps on 524,288 cores;
// here the same code path runs a short transient at toy resolution, so the
// statistics are indicative, not converged.
//
//	go run ./examples/turbulence [-steps 400]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/stats"
)

func main() {
	steps := flag.Int("steps", 400, "time steps to run")
	flag.Parse()

	// Four ranks in a 2x2 pencil grid — the full distributed pipeline.
	mpi.Run(4, func(comm *mpi.Comm) {
		// Wall-normal resolution matters: the pointwise products of the
		// collocation method alias in y when Ny is too small for the
		// transition transient, so use a generous basis.
		wl, err := core.NewWorkload(comm, core.Config{
			Nx: 32, Ny: 65, Nz: 32, // empty Workload selects "channel"
			ReTau: 180, Dt: 5e-4, Forcing: 1,
			PA: 2, PB: 2, Pool: par.NewPool(2),
		})
		if err != nil {
			log.Fatal(err)
		}
		s := wl.(core.ChannelFlow).ChannelSolver()
		s.SetLaminar()
		s.Perturb(0.3, 3, 3, 2024)

		acc := &stats.Accumulator{}
		for i := 1; i <= *steps; i++ {
			// Adaptive stepping keeps the convective CFL bound near 0.9
			// through the violent transient-growth phase of transition.
			core.AdvanceAdaptive(s, 1, 0.9, 5)
			if i%20 == 0 {
				acc.Add(stats.Snapshot(s))
				if i%100 == 0 {
					// Collectives run on every rank; only rank 0 prints.
					e := s.TotalEnergy()
					ut := s.FrictionVelocity()
					cfl := s.CFLEstimate()
					if comm.Rank() == 0 {
						fmt.Printf("step %4d  t=%6.3f  dt=%7.1e  E=%9.4f  u_tau=%6.4f  CFL<=%5.2f\n", i, s.Time, s.Cfg.Dt, e, ut, cfl)
					}
				}
			}
		}
		if comm.Rank() != 0 {
			return
		}
		p := acc.Mean()
		yp, up, uTau := p.WallUnits(s.Nu())
		fmt.Printf("\nFigure 5 data: mean velocity in wall units (u_tau = %.4f)\n", uTau)
		fmt.Printf("%-10s %-10s %-12s\n", "y+", "U+", "Reichardt")
		for i := 0; i < len(yp); i += 2 {
			fmt.Printf("%-10.3f %-10.4f %-12.4f\n", yp[i], up[i], stats.ReichardtProfile(yp[i]))
		}
		if k, b, ok := stats.LogLawFit(yp, up, 30, 120); ok {
			fmt.Printf("log-law fit: kappa = %.3f, B = %.2f (classical ~0.40, ~5.0)\n", k, b)
		}
		fmt.Println("\nFigure 6 data: Reynolds stresses")
		if err := p.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
	})
}
