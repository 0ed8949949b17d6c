package core

// Triply-periodic isotropic turbulence: the second registered workload.
// All three directions are Fourier, so the wall-normal B-spline machinery
// disappears entirely — the implicit viscous solve degenerates to a
// diagonal per-mode division and incompressibility is enforced by
// projecting the nonlinear term onto the divergence-free subspace. The
// nonlinear evaluation reuses the channel's pencil substrate unchanged:
// an inverse y FFT brings each locally owned (kx, kz) line to y-physical
// space, the same four global transposes and padded z/x transforms form
// the six dealiased quadratic products, and a forward y FFT (with a
// 2/3-rule truncation in y, where the transposes carry no padding) returns
// them to fully spectral space. Time advance is the same SMR'91 IMEX RK3.
//
// Layout matches the channel solver everywhere: y-pencil state is
// [w][j] with w the local (kx, kz) slot and j the wrapped y mode, so the
// pencil transposes, telemetry instrumentation and checkpoint re-sharding
// all see exactly the shapes they were built for.

import (
	"fmt"
	"math"
	"math/cmplx"

	"channeldns/internal/ckpt"
	"channeldns/internal/fft"
	"channeldns/internal/mpi"
	"channeldns/internal/parfft"
	"channeldns/internal/telemetry"
)

// IsoSolver holds the distributed state of an isotropic-turbulence run:
// the three spectral velocity components per locally owned (kx, kz) mode
// column, plus the previous-substep nonlinear terms.
type IsoSolver struct {
	base

	// Spectral velocity, [w][j] over wrapped y modes.
	cu, cv, cw [][]complex128
	// Previous-substep projected nonlinear terms, one set per component.
	hPrev [3][][]complex128

	// Wrapped y wavenumbers and the 2/3-rule dealiasing mask.
	ky     []float64
	kyKeep []bool

	// The y transform bracketing the excursion (which carries the y-physical
	// lines through the padded z/x transforms and back), the current-substep
	// nonlinear terms swapped with hPrev, and one y line of scratch per
	// worker.
	planY *fft.Plan
	exc   *parfft.Excursion
	hCur  [3][][]complex128
	yline [][]complex128
}

// NewIsotropic constructs the isotropic workload collectively. Every rank
// of the PA x PB grid must call it with identical configuration.
func NewIsotropic(world *mpi.Comm, cfg Config) (*IsoSolver, error) {
	cfg.Workload = WorkloadIsotropic
	s := &IsoSolver{}
	if err := s.base.init(world, cfg); err != nil {
		return nil, err
	}
	cfg, g := s.Cfg, s.G
	s.checkpointing.self = s

	ny := cfg.Ny
	s.cu = allocCoef(s.nw, ny)
	s.cv = allocCoef(s.nw, ny)
	s.cw = allocCoef(s.nw, ny)
	for c := range s.hPrev {
		s.hPrev[c] = allocCoef(s.nw, ny)
	}

	s.ky = make([]float64, ny)
	s.kyKeep = make([]bool, ny)
	by := 2 * math.Pi / cfg.Ly
	for j := 0; j < ny; j++ {
		idx := s.kyIndex(j)
		s.ky[j] = by * float64(idx)
		a := idx
		if a < 0 {
			a = -a
		}
		s.kyKeep[j] = 3*a <= ny
	}

	s.planY = fft.NewPlan(ny)
	s.exc = parfft.NewExcursion(s.D, fft.NewPaddedComplex(g.Nz, g.MZ()), fft.NewPaddedReal(g.NKx(), g.MX()),
		nil, nil, s.tel, &parfft.SixProducts)
	for c := range s.hCur {
		s.hCur[c] = allocCoef(s.nw, ny)
	}
	s.yline = make([][]complex128, s.pool().Workers())
	for i := range s.yline {
		s.yline[i] = make([]complex128, ny)
	}
	return s, nil
}

// kyIndex returns the signed y mode number of wrap slot j (the even-Ny
// Nyquist slot maps to -Ny/2 and is always dealiased away).
func (s *IsoSolver) kyIndex(j int) int {
	if 2*j < s.Cfg.Ny {
		return j
	}
	return j - s.Cfg.Ny
}

// InitDefault seeds a deterministic divergence-free large-scale velocity
// field: unit-magnitude random phases of amplitude amp on every mode with
// |index| <= 2 in each direction, conjugate-paired on the kx = 0 plane and
// projected onto the divergence-free subspace. Reproducible across process
// grids.
func (s *IsoSolver) InitDefault(amp float64, seed int64) {
	const kmax = 2
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) || ikx > kmax {
			continue
		}
		kzIdx := s.G.KzIndex(ikz)
		if kzIdx > kmax || kzIdx < -kmax {
			continue
		}
		for j := 0; j < s.Cfg.Ny; j++ {
			kyIdx := s.kyIndex(j)
			if kyIdx > kmax || kyIdx < -kmax || !s.kyKeep[j] {
				continue
			}
			if ikx == 0 && kyIdx == 0 && kzIdx == 0 {
				continue
			}
			var a [3]complex128
			for c := 0; c < 3; c++ {
				if ikx == 0 && (kzIdx < 0 || (kzIdx == 0 && kyIdx < 0)) {
					// Conjugate partner of (0, -ky, -kz): reality.
					a[c] = conj(isoPhase(seed, 0, -kyIdx, -kzIdx, c))
				} else {
					a[c] = isoPhase(seed, ikx, kyIdx, kzIdx, c)
				}
				a[c] *= complex(amp, 0)
			}
			// Project out the compressible part: a -= k (k.a)/k2.
			kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
			kyv := s.ky[j]
			k2 := kx*kx + kyv*kyv + kz*kz
			div := (complex(kx, 0)*a[0] + complex(kyv, 0)*a[1] + complex(kz, 0)*a[2]) / complex(k2, 0)
			s.cu[w][j] = a[0] - complex(kx, 0)*div
			s.cv[w][j] = a[1] - complex(kyv, 0)*div
			s.cw[w][j] = a[2] - complex(kz, 0)*div
		}
	}
}

// isoPhase is a deterministic unit-magnitude complex number keyed by
// (seed, 3-D mode, component).
func isoPhase(seed int64, ikx, kyIdx, kzIdx, comp int) complex128 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(ikx+1)*0xbf58476d1ce4e5b9 +
		uint64(kyIdx+1000)*0x94d049bb133111eb + uint64(kzIdx+2000)*0xd6e8feb86659fd93 +
		uint64(comp+1)*0x2545f4914f6cdd1d
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	theta := 2 * math.Pi * float64(h%1000003) / 1000003
	sn, cs := math.Sincos(theta)
	return complex(cs, sn)
}

// velocityValues writes u, v, w of every local mode, inverse y transformed,
// into the excursion's inputs: y-physical lines, +0 in the z Nyquist slot.
func (s *IsoSolver) velocityValues() {
	ny, vel := s.Cfg.Ny, s.exc.In(3)
	sp := s.tel.Begin(telemetry.PhaseFFTInverse)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			_, ikz := s.modeOf(w)
			for c, col := range [3][][]complex128{s.cu, s.cv, s.cw} {
				line := vel[c][w*ny : (w+1)*ny]
				if s.G.IsNyquistZ(ikz) {
					clear(line)
					continue
				}
				s.planY.Inverse(line, col[w])
			}
		}
	})
	sp.End()
}

// isoNonlinear returns the fully spectral dealiased product fields uu, uv,
// uw, vv, vw, ww of the current state, in the excursion's field pool.
func (s *IsoSolver) isoNonlinear() [][]complex128 {
	ny := s.Cfg.Ny

	// Out to the padded physical grid, six products, and back.
	s.velocityValues()
	prods := s.exc.Run(&parfft.SixProducts)
	s.harvest(s.exc)

	// Forward y FFT with the 2/3-rule truncation, folding in the 1/Ny
	// normalization of the round trip.
	inv := 1 / float64(ny)
	sp := s.tel.Begin(telemetry.PhaseFFTForward)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		yline := s.yline[blk]
		for w := wlo; w < whi; w++ {
			_, ikz := s.modeOf(w)
			if s.G.IsNyquistZ(ikz) {
				continue
			}
			base := w * ny
			for _, field := range prods {
				line := field[base : base+ny]
				copy(yline, line)
				s.planY.Forward(line, yline)
				for j := 0; j < ny; j++ {
					if s.kyKeep[j] {
						line[j] *= complex(inv, 0)
					} else {
						line[j] = 0
					}
				}
			}
		}
	})
	sp.End()
	return prods
}

// isoAdvance assembles the divergence-form nonlinear term from the product
// spectra, projects it divergence-free, stores it for the next substep's
// explicit combination, and performs the diagonal IMEX advance
//
//	u_new = (u*(1 - alpha*dt*nu*k2) + dt*(gamma*N + zeta*N_prev)) / (1 + beta*dt*nu*k2).
//
// The k = 0 mode (no mean flow) and all dealiased slots stay pinned at zero.
// prods is isoNonlinear's result, nil with DisableNonlinear.
func (s *IsoSolver) isoAdvance(sub int, dt float64, prods [][]complex128) {
	sp := s.tel.Begin(telemetry.PhaseViscousSolve)
	g := s.G
	ny := s.Cfg.Ny
	ga := complex(smr91.Gamma[sub], 0)
	ze := complex(smr91.Zeta[sub], 0)
	al := smr91.Alpha[sub] * dt * s.nu
	be := smr91.Beta[sub] * dt * s.nu
	cdt := complex(dt, 0)
	iC := complex(0, 1)

	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			ikx, ikz := s.modeOf(w)
			if g.IsNyquistZ(ikz) {
				continue
			}
			kx, kz := g.Kx(ikx), g.Kz(ikz)
			base := w * ny
			cuw, cvw, cww := s.cu[w], s.cv[w], s.cw[w]
			hu, hv, hw := s.hCur[0][w], s.hCur[1][w], s.hCur[2][w]
			pu, pv, pw := s.hPrev[0][w], s.hPrev[1][w], s.hPrev[2][w]
			for j := 0; j < ny; j++ {
				if !s.kyKeep[j] {
					continue // dealiased slot, stays zero
				}
				kyv := s.ky[j]
				k2 := kx*kx + kyv*kyv + kz*kz
				if k2 == 0 {
					continue // zero mode pinned
				}
				var nu, nv, nw complex128
				if prods != nil {
					ckx, cky, ckz := complex(kx, 0), complex(kyv, 0), complex(kz, 0)
					// N_i = -i k_j (u_j u_i)-hat from the six products.
					nu = -iC * (ckx*prods[parfft.UU][base+j] + cky*prods[parfft.UV][base+j] + ckz*prods[parfft.UW][base+j])
					nv = -iC * (ckx*prods[parfft.UV][base+j] + cky*prods[parfft.VV][base+j] + ckz*prods[parfft.VW][base+j])
					nw = -iC * (ckx*prods[parfft.UW][base+j] + cky*prods[parfft.VW][base+j] + ckz*prods[parfft.WW][base+j])
					// Pressure projection: N -= k (k.N)/k2.
					div := (ckx*nu + cky*nv + ckz*nw) / complex(k2, 0)
					nu -= ckx * div
					nv -= cky * div
					nw -= ckz * div
				}
				hu[j], hv[j], hw[j] = nu, nv, nw
				expl := complex(1-al*k2, 0)
				den := complex(1+be*k2, 0)
				cuw[j] = (cuw[j]*expl + cdt*(ga*nu+ze*pu[j])) / den
				cvw[j] = (cvw[j]*expl + cdt*(ga*nv+ze*pv[j])) / den
				cww[j] = (cww[j]*expl + cdt*(ga*nw+ze*pw[j])) / den
			}
		}
	})
	sp.End()
}

// StepOnce advances the solution by one full time step (three substeps).
func (s *IsoSolver) StepOnce() {
	dt := s.beginStep()
	for sub := 0; sub < 3; sub++ {
		s.trc.SetStage(sub)
		var prods [][]complex128
		if !s.Cfg.DisableNonlinear {
			prods = s.isoNonlinear()
		}
		s.isoAdvance(sub, dt, prods)
		s.hPrev, s.hCur = s.hCur, s.hPrev
	}
	s.endStep(dt)
}

// CFLEstimate returns a bound on the convective CFL number at the current
// dt: exact physical maxima when a nonlinear pass has run, else the
// triangle-inequality bound from spectral amplitudes. Collective.
func (s *IsoSolver) CFLEstimate() float64 {
	var m [3]float64
	perY, current := s.harvested()
	if current {
		for c := range m {
			for _, v := range perY[c] {
				m[c] = math.Max(m[c], v)
			}
		}
		copy(m[:], mpi.Allreduce(s.World(), mpi.OpMax, m[:]))
	} else {
		for w := 0; w < s.nw; w++ {
			ikx, ikz := s.modeOf(w)
			if s.G.IsNyquistZ(ikz) {
				continue
			}
			wt := oneSided(ikx)
			for j := 0; j < s.Cfg.Ny; j++ {
				m[0] += wt * cmplx.Abs(s.cu[w][j])
				m[1] += wt * cmplx.Abs(s.cv[w][j])
				m[2] += wt * cmplx.Abs(s.cw[w][j])
			}
		}
		copy(m[:], mpi.Allreduce(s.World(), mpi.OpSum, m[:]))
	}
	dx := s.Cfg.Lx / float64(s.G.MX())
	dy := s.Cfg.Ly / float64(s.Cfg.Ny)
	dz := s.Cfg.Lz / float64(s.G.MZ())
	return s.Cfg.Dt * (m[0]/dx + m[1]/dy + m[2]/dz)
}

// TotalEnergy returns the volume-averaged kinetic energy by Parseval:
// (1/2) sum over modes of |u|^2+|v|^2+|w|^2, one-sided kx weighted by two.
// Collective.
func (s *IsoSolver) TotalEnergy() float64 {
	e := 0.0
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) {
			continue
		}
		wt := oneSided(ikx)
		for j := 0; j < s.Cfg.Ny; j++ {
			e += wt * (sq(s.cu[w][j]) + sq(s.cv[w][j]) + sq(s.cw[w][j]))
		}
	}
	return mpi.Allreduce(s.World(), mpi.OpSum, []float64{e})[0] / 2
}

// DivergenceResidual returns the largest |k . u-hat| over all modes — zero
// to rounding for a correctly projected field. Collective.
func (s *IsoSolver) DivergenceResidual() float64 {
	m := 0.0
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) {
			continue
		}
		kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
		for j := 0; j < s.Cfg.Ny; j++ {
			d := complex(kx, 0)*s.cu[w][j] + complex(s.ky[j], 0)*s.cv[w][j] + complex(kz, 0)*s.cw[w][j]
			if a := cmplx.Abs(d); a > m {
				m = a
			}
		}
	}
	return mpi.Allreduce(s.World(), mpi.OpMax, []float64{m})[0]
}

// StatusLine summarizes the run: energy and the spectral divergence
// residual. Collective.
func (s *IsoSolver) StatusLine() string {
	e := s.TotalEnergy()
	div := s.DivergenceResidual()
	return fmt.Sprintf("step %6d  t=%8.4f  E=%10.6f  div=%.2e", s.Step, s.Time, e, div)
}

// CheckpointState returns this rank's state as a ckpt.State aliasing the
// solver's buffers. The base four complex fields carry u, v, w and the
// first previous-substep nonlinear component; the remaining two components
// ride the extended-field block. No mean profiles: the k = 0 mode is zero.
func (s *IsoSolver) CheckpointState() *ckpt.State {
	st := s.stateHeader()
	st.CV, st.CW, st.HgPrev, st.HvPrev = s.cu, s.cv, s.cw, s.hPrev[0]
	st.Extra = [][][]complex128{s.hPrev[1], s.hPrev[2]}
	return st
}
