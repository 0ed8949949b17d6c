// Poiseuille: validation against an exact solution. Starting from rest
// under a unit pressure gradient, the channel must spin up to the laminar
// parabola U(y) = ReTau*(1-y^2)/2, and the analytic startup transient (a
// cosine eigenfunction series) must be tracked along the way.
//
//	go run ./examples/poiseuille
package main

import (
	"fmt"
	"log"
	"math"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// analyticStartup is the exact solution of du/dt = 1 + nu*u” with u(±1)=0,
// u(y,0)=0:
//
//	u(y,t) = (1-y^2)/(2 nu) - sum_k a_k cos(l_k y) exp(-nu l_k^2 t),
//	l_k = (2k+1) pi/2,  a_k = 2 (-1)^k / (nu l_k^3).
func analyticStartup(y, t, nu float64) float64 {
	u := (1 - y*y) / (2 * nu)
	for k := 0; k < 200; k++ {
		lk := (2*float64(k) + 1) * math.Pi / 2
		ak := 2 * math.Pow(-1, float64(k)) / (nu * lk * lk * lk)
		u -= ak * math.Cos(lk*y) * math.Exp(-nu*lk*lk*t)
	}
	return u
}

func main() {
	const reTau = 10.0
	mpi.Run(1, func(comm *mpi.Comm) {
		s, err := core.New(comm, core.Config{
			Nx: 8, Ny: 33, Nz: 8, ReTau: reTau, Dt: 5e-3, Forcing: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		nu := s.Nu()
		fmt.Println("laminar channel startup vs analytic solution:")
		fmt.Printf("%-8s %-12s %-12s %-10s\n", "t", "U(0) dns", "U(0) exact", "max error")
		for block := 0; block < 6; block++ {
			core.Advance(s, 40)
			u := s.MeanProfile()
			maxErr := 0.0
			for i, y := range s.CollocationPoints() {
				exact := analyticStartup(y, s.Time, nu)
				if e := math.Abs(u[i] - exact); e > maxErr {
					maxErr = e
				}
			}
			mid := len(u) / 2
			fmt.Printf("%-8.3f %-12.6f %-12.6f %-10.2e\n",
				s.Time, u[mid], analyticStartup(s.CollocationPoints()[mid], s.Time, nu), maxErr)
		}
		// Long-time limit: the exact parabola. The slowest transient mode
		// decays like exp(-nu*(pi/2)^2 t), so run to t ~ 90; accuracy no
		// longer matters here, so take much larger (still stable, viscous-
		// implicit) steps.
		s.Cfg.Dt = 0.05
		core.Advance(s, 1700)
		u := s.MeanProfile()
		maxErr := 0.0
		for i, y := range s.CollocationPoints() {
			if e := math.Abs(u[i] - reTau*(1-y*y)/2); e > maxErr {
				maxErr = e
			}
		}
		fmt.Printf("\nsteady state at t=%.2f: max |U - parabola| = %.2e\n", s.Time, maxErr)
	})
}
