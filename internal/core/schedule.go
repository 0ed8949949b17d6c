package core

import (
	"channeldns/internal/parfft"
	"channeldns/internal/schedule"
)

// timestepParams is what the three schedule builders share: the grid, the
// process grid, and the divergence form's six products with 4-pass
// pack/unpack around every transpose.
func (c Config) timestepParams() schedule.TimestepParams {
	c.fillDefaults()
	return schedule.TimestepParams{
		Nx: c.Nx, Ny: c.Ny, Nz: c.Nz,
		PA: c.PA, PB: c.PB,
		Products:   parfft.NumProducts,
		PackPasses: 4,
	}
}

// Schedule returns the declarative op list of one RK3 timestep as this
// solver executes it: three substeps of the §2.3 transpose/FFT pipeline
// with the six independent quadratic products (uu, uv, uw, vv, vw, ww) of
// the divergence form carried through the forward path, Nyquist-dropped
// one-sided x modes, and 4-pass pack/unpack around every transpose. The
// convective and skew-symmetric forms move different forward-path traffic
// and are not described; the bench tools and the solver's flop accounting
// use the default divergence form.
func (c Config) Schedule() *schedule.Schedule {
	return schedule.Timestep(c.timestepParams())
}

// IsotropicSchedule returns the declarative op list of one RK3 timestep of
// the isotropic-turbulence workload: the channel's transpose/FFT pipeline
// bracketed by y-direction FFTs, with a diagonal per-mode projection +
// advance in place of the banded wall-normal solve.
func (c Config) IsotropicSchedule() *schedule.Schedule {
	return schedule.IsotropicTimestep(c.timestepParams())
}

// ScalarSchedule returns the declarative op list of one RK3 timestep of
// the passive-scalar workload: the channel timestep with the scalar riding
// its excursion (4 fields out, the six products and 3 flux products back)
// and the scalar's banded implicit solve per substep.
func (c Config) ScalarSchedule() *schedule.Schedule {
	return schedule.ScalarTimestep(c.timestepParams())
}
