// Package core implements the channel DNS itself: the Kim-Moin-Moser
// wall-normal velocity/vorticity formulation (paper §2.1) discretized with
// Fourier-Galerkin in x and z and B-spline collocation in y, advanced in
// time with the low-storage IMEX Runge-Kutta scheme of Spalart, Moser &
// Rogers (1991), with 3/2-rule dealiased nonlinear terms evaluated through
// the full transpose pipeline of paper §2.3.
//
// Nondimensionalization: lengths by the channel half-width (y in [-1, 1]),
// velocities by the friction velocity u_tau, so nu = 1/Re_tau and the
// driving mean pressure gradient is -dP/dx = 1.
package core

import (
	"fmt"
	"math"

	"channeldns/internal/par"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// stretch is the wall clustering of every channel grid's breakpoints
// (bspline.ChannelBreakpoints); Fingerprint hashes it, so old checkpoints
// match only while it stays 0.85.
const stretch = 0.85

// Config selects the workload, resolution, physics and parallel layout of
// a solver built through NewWorkload (see workload.go).
type Config struct {
	// Workload selects the simulation scenario: "channel" (the default),
	// "isotropic" or "scalar". NewWorkload dispatches on it; NewIsotropic and
	// NewScalar set it themselves. It selects the validation rules and the
	// schedule whose flops are credited, and is stamped into checkpoints
	// and reports.
	Workload string
	// Spectral resolution: Nx, Nz full Fourier modes (even), Ny B-spline
	// basis functions (= wall-normal collocation points). The isotropic
	// workload reads Ny as its Fourier mode count in y instead.
	Nx, Ny, Nz int
	// Domain lengths of the periodic directions (half-width units).
	Lx, Lz float64
	// Ly is the y extent of the triply-periodic isotropic workload
	// (0 selects 2*pi). The channel workloads fix y to [-1, 1].
	Ly float64
	// Friction Reynolds number; nu = 1/ReTau.
	ReTau float64
	// Time step.
	Dt float64
	// B-spline degree; 0 selects the paper's degree 7.
	Degree int
	// Process grid: PA x PB must equal the world size. Zero values select
	// 1 x 1.
	PA, PB int
	// Worker pool for on-node parallel regions (nil = serial).
	Pool *par.Pool
	// DisableNonlinear freezes the convective terms (for linear and
	// validation runs).
	DisableNonlinear bool
	// Forcing is the imposed mean pressure gradient -dP/dx. For turbulent
	// channel runs this is 1 in wall units. NaN is invalid; zero disables.
	Forcing float64
	// Nonlinear selects the discrete convective-term form: the paper's
	// divergence form (default), the convective form, or their
	// skew-symmetric average (see convective.go).
	Nonlinear Form
	// Telemetry, when non-nil, attaches each rank's collector from this
	// registry to the solver, its pencil decomposition and its
	// communicators, so every timestep feeds the phase timers, comm
	// counters and FLOP accounting that telemetry.Report aggregates. Nil
	// (the default) disables instrumentation; the hot path is
	// allocation-free either way.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, attaches each rank's flight recorder so every
	// phase span, transpose exchange window, pairwise peer wait and
	// completed step lands in the per-rank event ring (see internal/trace).
	// Tracing implies telemetry: when Telemetry is nil a private registry
	// is created, since the phase events piggyback on the telemetry spans.
	Trace *trace.Trace
	// Prandtl is the Prandtl number nu/kappa of the passive-scalar
	// workload (0 selects 1). Ignored by the other workloads.
	Prandtl float64
}

// fillDefaults replaces the zero values that stand for a default with that
// default. It is the one default pass, run by the constructors, Validate,
// Fingerprint and the schedule builders.
func (c *Config) fillDefaults() {
	if c.Workload == "" {
		c.Workload = WorkloadChannel
	}
	if c.Degree == 0 {
		c.Degree = 7
	}
	if c.PA == 0 {
		c.PA = 1
	}
	if c.PB == 0 {
		c.PB = 1
	}
	if c.Lx == 0 {
		c.Lx = 2 * 3.141592653589793
	}
	if c.Lz == 0 {
		c.Lz = 3.141592653589793
	}
	if c.Ly == 0 {
		c.Ly = 2 * 3.141592653589793
	}
	if c.Prandtl == 0 {
		c.Prandtl = 1
	}
}

// Validate reports why no workload can be built from c, or nil. Zero values
// stand for their defaults, as they do in the constructors. It is the one
// owner of the shape checks: the constructors run it before they build
// anything, and a front end that takes configurations from outside the
// process (dnsserve's JobSpec) runs it to refuse them up front.
func (c Config) Validate() error {
	c.fillDefaults()
	return c.validate()
}

// validate rejects what the workload named by c.Workload cannot run: a domain
// extent, ReTau, Dt or Prandtl that is not positive and finite, a non-finite
// Forcing, a grid the Fourier directions or the pencil decomposition cannot
// carry (every rank must own a non-empty window of kx and z over CommA and of
// kz and y over CommB), and per workload: the channel family needs a spline
// degree of at least 1 and enough basis functions for it; the scalar and
// isotropic workloads run the serial exchange only, and the isotropic one the
// divergence form only.
func (c *Config) validate() error {
	if _, ok := workloads[c.Workload]; !ok {
		return fmt.Errorf("core: unknown workload %q (registered: %v)", c.Workload, WorkloadNames())
	}
	if c.Nx < 4 || c.Nx%2 != 0 || c.Nz < 4 || c.Nz%2 != 0 {
		return fmt.Errorf("core: Nx=%d Nz=%d must be even and >= 4", c.Nx, c.Nz)
	}
	if c.Ny < 4 {
		return fmt.Errorf("core: Ny=%d must be >= 4", c.Ny)
	}
	if !(c.Lx > 0 && c.Lz > 0 && c.Ly > 0) || math.IsInf(c.Lx, 1) || math.IsInf(c.Lz, 1) || math.IsInf(c.Ly, 1) {
		return fmt.Errorf("core: domain extents Lx=%g Lz=%g Ly=%g must be positive and finite", c.Lx, c.Lz, c.Ly)
	}
	if c.PA < 1 || c.PB < 1 {
		return fmt.Errorf("core: process grid %dx%d must be at least 1x1", c.PA, c.PB)
	}
	if c.PA > c.Nx/2 || c.PA > c.Nz || c.PB > c.Nz || c.PB > c.Ny {
		return fmt.Errorf("core: process grid %dx%d leaves a rank an empty pencil window on the %dx%dx%d grid (need PA <= Nx/2, Nz and PB <= Nz, Ny)",
			c.PA, c.PB, c.Nx, c.Ny, c.Nz)
	}
	if !(c.ReTau > 0) || math.IsInf(c.ReTau, 1) {
		return fmt.Errorf("core: ReTau must be positive and finite, got %g", c.ReTau)
	}
	if !(c.Dt > 0) || math.IsInf(c.Dt, 1) {
		return fmt.Errorf("core: Dt must be positive and finite, got %g", c.Dt)
	}
	if math.IsNaN(c.Forcing) || math.IsInf(c.Forcing, 0) {
		return fmt.Errorf("core: Forcing must be finite, got %g", c.Forcing)
	}
	switch c.Workload {
	case WorkloadIsotropic:
		if c.Nonlinear != FormDivergence {
			return fmt.Errorf("core: the isotropic workload supports only the divergence form")
		}
		return nil // Fourier in y: no spline degree for Ny to carry
	case WorkloadScalar:
		if !(c.Prandtl > 0) || math.IsInf(c.Prandtl, 1) {
			return fmt.Errorf("core: Prandtl must be positive and finite, got %g", c.Prandtl)
		}
	}
	if c.Degree < 1 {
		return fmt.Errorf("core: spline degree %d must be at least 1", c.Degree)
	}
	if c.Ny < c.Degree+2 {
		return fmt.Errorf("core: Ny=%d too small for degree %d", c.Ny, c.Degree)
	}
	return nil
}

// smr91 holds the low-storage IMEX RK3 coefficients of Spalart, Moser &
// Rogers (1991) (paper §2.1 reference [23]), one entry per substep:
// explicit (convective) Gamma, Zeta; implicit (viscous) Alpha = Beta. Every
// solver's substep reads this one table.
var smr91 = struct{ Gamma, Zeta, Alpha, Beta [3]float64 }{
	Gamma: [3]float64{8.0 / 15.0, 5.0 / 12.0, 3.0 / 4.0},
	Zeta:  [3]float64{0, -17.0 / 60.0, -5.0 / 12.0},
	Alpha: [3]float64{4.0 / 15.0, 1.0 / 15.0, 1.0 / 6.0},
	Beta:  [3]float64{4.0 / 15.0, 1.0 / 15.0, 1.0 / 6.0},
}
