package core

import (
	"math"

	"channeldns/internal/mpi"
)

// Initial conditions. All setters are local: each rank sets only the modes
// it owns, using deterministic mode-keyed randomization so that the
// conjugate-symmetry constraint on the kx = 0 plane is satisfied without
// communication and so that runs are reproducible across process grids.

// Cart returns the cartesian process-grid communicator.
func (s *Solver) Cart() *mpi.CartComm { return s.D.Cart }

// SetMeanProfile sets the mean streamwise profile U(y) on the owner rank
// (no-op elsewhere).
func (s *Solver) SetMeanProfile(f func(y float64) float64) {
	if !s.ownsMean {
		return
	}
	vals := make([]float64, s.Cfg.Ny)
	for i, y := range s.grev {
		vals[i] = f(y)
	}
	copy(s.meanU, s.B.Interpolate(vals))
}

// SetLaminar sets the laminar Poiseuille profile U(y) = ReTau*(1-y^2)/2,
// the steady solution under unit forcing.
func (s *Solver) SetLaminar() {
	re := s.Cfg.ReTau
	s.SetMeanProfile(func(y float64) float64 { return re * (1 - y*y) / 2 })
}

// SetModeV sets v-hat for a locally owned mode from a value function
// (interpolated at the collocation points). No-op if the mode is not local.
// The caller is responsible for wall compatibility (f(+-1) = f'(+-1) = 0).
func (s *Solver) SetModeV(ikx, ikz int, f func(y float64) complex128) {
	w := s.widx(ikx, ikz)
	if w < 0 {
		return
	}
	s.interpolateComplex(s.cv[w], f)
}

// SetModeOmega sets omega_y-hat for a locally owned mode from a value
// function. The caller is responsible for f(+-1) = 0.
func (s *Solver) SetModeOmega(ikx, ikz int, f func(y float64) complex128) {
	w := s.widx(ikx, ikz)
	if w < 0 {
		return
	}
	s.interpolateComplex(s.cw[w], f)
}

func (s *Solver) interpolateComplex(dst []complex128, f func(y float64) complex128) {
	ny := s.Cfg.Ny
	re := make([]float64, ny)
	im := make([]float64, ny)
	for i, y := range s.grev {
		v := f(y)
		re[i] = real(v)
		im[i] = imag(v)
	}
	cr := s.B.Interpolate(re)
	ci := s.B.Interpolate(im)
	for i := 0; i < ny; i++ {
		dst[i] = complex(cr[i], ci[i])
	}
}

// Perturb adds wall-compatible disturbances of the given amplitude to all
// locally owned modes perturbMode admits, so a run is bit-reproducible for
// any process grid.
func (s *Solver) Perturb(amp float64, kxMax, kzMax int, seed int64) {
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		av, ok := perturbMode(s.G, ikx, ikz, kxMax, kzMax, amp, seed, 0)
		if !ok {
			continue
		}
		ao, _ := perturbMode(s.G, ikx, ikz, kxMax, kzMax, amp, seed, 1)
		// v shape (1-y^2)^2 satisfies v = v' = 0; omega shape (1-y^2)
		// satisfies omega = 0 at the walls.
		s.setShape(s.cv[w], av, func(y float64) float64 { q := 1 - y*y; return q * q })
		s.setShape(s.cw[w], ao, func(y float64) float64 { return 1 - y*y })
	}
}

// perturbMode is the one perturbation rule of the channel-family solvers
// (channel and scalar): the amplitude of component comp (0 v, 1 omega_y,
// 2 theta) on mode (ikx, ikz) of g, or false for a mode the disturbance
// leaves alone — the mean, the z Nyquist mode, and any with kx
// index above kxMax or |kz index| above kzMax. The phase derives from (seed,
// mode, comp); on the kx = 0 plane a negative kz index takes the conjugate
// of its partner's, so the field is real. Solvers that seed through it start
// from the same physical state.
func perturbMode(g Grid, ikx, ikz, kxMax, kzMax int, amp float64, seed int64, comp int) (complex128, bool) {
	if g.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
		return 0, false
	}
	kzIdx := g.KzIndex(ikz)
	if ikx > kxMax || kzIdx > kzMax || kzIdx < -kzMax {
		return 0, false
	}
	a := modePhase(seed, ikx, kzIdx, comp)
	if ikx == 0 && kzIdx < 0 {
		a = conj(modePhase(seed, 0, -kzIdx, comp))
	}
	return a * complex(amp, 0), true
}

func (s *Solver) setShape(dst []complex128, a complex128, shape func(float64) float64) {
	ny := s.Cfg.Ny
	vals := make([]float64, ny)
	for i, y := range s.grev {
		vals[i] = shape(y)
	}
	c := s.B.Interpolate(vals)
	for i := 0; i < ny; i++ {
		dst[i] += a * complex(c[i], 0)
	}
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// modePhase is a deterministic unit-magnitude complex number keyed by
// (seed, mode, component).
func modePhase(seed int64, ikx, kzIdx, comp int) complex128 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(ikx+1)*0xbf58476d1ce4e5b9 +
		uint64(kzIdx+1000)*0x94d049bb133111eb + uint64(comp)*0x2545f4914f6cdd1d
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	theta := 2 * math.Pi * float64(h%1000003) / 1000003
	sn, cs := math.Sincos(theta)
	return complex(cs, sn)
}
