// Quickstart: the smallest complete channel DNS — build the channel
// workload through the registry, set an initial condition, advance it, and
// look at the flow. Swap Workload for core.WorkloadIsotropic or
// core.WorkloadScalar to run the other registered scenarios on the same
// substrate.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

func main() {
	// Every run happens inside the message-passing runtime, even a serial
	// one: mpi.Run starts the ranks and hands each its communicator.
	mpi.Run(1, func(comm *mpi.Comm) {
		wl, err := core.NewWorkload(comm, core.Config{
			Workload: core.WorkloadChannel, // "" also selects the channel
			Nx:       16, Ny: 25, Nz: 16,   // Fourier x B-spline x Fourier resolution
			ReTau:   180,  // friction Reynolds number (nu = 1/ReTau)
			Dt:      1e-3, // time step
			Forcing: 1,    // mean pressure gradient, wall units
			Pool:    par.NewPool(2),
		})
		if err != nil {
			log.Fatal(err)
		}

		// Start from the workload's canonical initial condition: for the
		// channel, the laminar parabola plus small wall-compatible
		// disturbances in the lowest Fourier modes.
		wl.InitDefault(0.3, 42)

		// Channel-specific diagnostics (profiles, friction velocity) live on
		// the solver behind the ChannelFlow marker interface.
		solver := wl.(core.ChannelFlow).ChannelSolver()

		fmt.Printf("grid: %d x %d x %d (%.0f DOF for 3 velocity components)\n",
			solver.Cfg.Nx, solver.Cfg.Ny, solver.Cfg.Nz, float64(solver.G.DOF()*3))
		fmt.Printf("t=%5.3f  energy=%8.3f  u_tau=%.3f\n",
			solver.Time, solver.TotalEnergy(), solver.FrictionVelocity())

		// Advance 50 steps (each is three IMEX Runge-Kutta substeps with
		// the full dealiased nonlinear transform pipeline).
		for block := 0; block < 5; block++ {
			core.Advance(wl, 10)
			fmt.Printf("t=%5.3f  energy=%8.3f  u_tau=%.3f\n",
				solver.Time, solver.TotalEnergy(), solver.FrictionVelocity())
		}

		// The mean velocity profile, from the wall to the centerline.
		u := solver.MeanProfile()
		y := solver.CollocationPoints()
		fmt.Println("\nmean velocity profile (lower half):")
		for i := 0; i < len(y); i += 4 {
			if y[i] > 0 {
				break
			}
			fmt.Printf("  y=%7.3f  U=%7.3f\n", y[i], u[i])
		}
	})
}
