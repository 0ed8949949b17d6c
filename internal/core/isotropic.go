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
	"sync"
	"time"

	"channeldns/internal/ckpt"
	"channeldns/internal/fft"
	"channeldns/internal/field"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/pencil"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// IsoSolver holds the distributed state of an isotropic-turbulence run:
// the three spectral velocity components per locally owned (kx, kz) mode
// column, plus the previous-substep nonlinear terms.
type IsoSolver struct {
	checkpointing

	Cfg Config
	G   field.Grid
	D   *pencil.Decomp
	nu  float64

	kxlo, kxhi, kzlo, kzhi int
	nw                     int

	// Spectral velocity, [w][j] over wrapped y modes.
	cu, cv, cw [][]complex128
	// Previous-substep projected nonlinear terms, one set per component.
	hPrev [3][][]complex128

	// Wrapped y wavenumbers and the 2/3-rule dealiasing mask.
	ky     []float64
	kyKeep []bool

	padZ  *fft.PaddedComplex
	padX  *fft.PaddedReal
	planY *fft.Plan

	ws *isoWS

	// Physical |u_i| maxima harvested during the last nonlinear pass.
	physMaxMu      sync.Mutex
	physMax        [3]float64
	physMaxCurrent bool

	tel       *telemetry.Collector
	stepFlops int64
	trc       *trace.Recorder

	Time float64
	Step int
}

type isoWorker struct {
	phys  [3][]float64
	prod  []float64
	xscr  []complex128
	zscr  []complex128
	yline []complex128
}

type isoWS struct {
	velY   [][]complex128 // 3 fields, nw*ny
	zpVel  [][]complex128 // 3 fields, linesZ*nz
	zphys  [][]complex128 // 3 fields, linesZ*mz
	xp     [][]complex128 // 3 fields, linesX*nkx
	prodX  [][]complex128 // nProducts, linesX*nkx
	zpProd [][]complex128 // nProducts, linesZ*mz
	zspec  [][]complex128 // nProducts, linesZ*nz
	prodsY [][]complex128 // nProducts, nw*ny

	// Current-substep nonlinear terms, swapped with IsoSolver.hPrev.
	hCur [3][][]complex128

	workers []isoWorker
}

// NewIsotropic constructs the isotropic workload collectively. Every rank
// of the PA x PB grid must call it with identical configuration.
func NewIsotropic(world *mpi.Comm, cfg Config) (*IsoSolver, error) {
	cfg.fillDefaults()
	cfg.Workload = WorkloadIsotropic
	if cfg.ReTau <= 0 {
		return nil, fmt.Errorf("core: ReTau must be positive, got %g", cfg.ReTau)
	}
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("core: Dt must be positive, got %g", cfg.Dt)
	}
	if cfg.Overlap {
		return nil, fmt.Errorf("core: the isotropic workload runs the serial exchange only (Overlap unsupported)")
	}
	if cfg.Nonlinear != FormDivergence {
		return nil, fmt.Errorf("core: the isotropic workload supports only the divergence form")
	}
	g := field.NewGrid(cfg.Nx, cfg.Ny, cfg.Nz, cfg.Lx, cfg.Lz)
	s := &IsoSolver{
		Cfg: cfg,
		G:   g,
		nu:  1 / cfg.ReTau,
	}
	s.checkpointing.self = s

	if cfg.Trace != nil && cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
		s.Cfg.Telemetry = cfg.Telemetry
	}
	if cfg.Telemetry != nil {
		s.tel = cfg.Telemetry.Rank(world.Rank())
		world.SetTelemetry(s.tel)
		s.stepFlops = int64(cfg.IsotropicSchedule().TotalFlops() / float64(world.Size()))
	}
	if cfg.Trace != nil {
		s.trc = cfg.Trace.Rank(world.Rank())
		world.SetTracer(s.trc)
		s.tel.SetTracer(s.trc)
	}
	s.D = pencil.New(world, cfg.PA, cfg.PB, g.NKx(), g.Nz, g.Ny, cfg.Pool)
	s.D.Telemetry = s.tel
	s.D.Trace = s.trc
	s.kxlo, s.kxhi = s.D.KxRange()
	s.kzlo, s.kzhi = s.D.KzRangeY()
	s.nw = (s.kxhi - s.kxlo) * (s.kzhi - s.kzlo)

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

	s.padZ = fft.NewPaddedComplex(g.Nz, g.MZ())
	s.padX = fft.NewPaddedReal(g.NKx(), g.MX())
	s.planY = fft.NewPlan(ny)
	s.ws = s.newIsoWorkspace()
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

func (s *IsoSolver) newIsoWorkspace() *isoWS {
	ny := s.Cfg.Ny
	g := s.G
	nz, mz := g.Nz, g.MZ()
	nkx, mx := g.NKx(), g.MX()

	kxloc := s.kxhi - s.kxlo
	yl, yh := s.D.YRange()
	nyLoc := yh - yl
	linesZ := kxloc * nyLoc
	zxl, zxh := s.D.ZRangeX(mz)
	linesX := nyLoc * (zxh - zxl)

	ws := &isoWS{
		velY:   allocFieldsC(3, s.nw*ny),
		zpVel:  allocFieldsC(3, linesZ*nz),
		zphys:  allocFieldsC(3, linesZ*mz),
		xp:     allocFieldsC(3, linesX*nkx),
		prodX:  allocFieldsC(nProducts, linesX*nkx),
		zpProd: allocFieldsC(nProducts, linesZ*mz),
		zspec:  allocFieldsC(nProducts, linesZ*nz),
		prodsY: allocFieldsC(nProducts, s.nw*ny),
	}
	for c := range ws.hCur {
		ws.hCur[c] = allocCoef(s.nw, ny)
	}
	ws.workers = make([]isoWorker, s.pool().Workers())
	for i := range ws.workers {
		w := &ws.workers[i]
		for j := range w.phys {
			w.phys[j] = make([]float64, mx)
		}
		w.prod = make([]float64, mx)
		w.xscr = make([]complex128, s.padX.ScratchLen())
		w.zscr = make([]complex128, s.padZ.ScratchLen())
		w.yline = make([]complex128, ny)
	}
	return ws
}

func (s *IsoSolver) pool() *par.Pool { return s.Cfg.Pool }

// widx maps global mode indices to the local slot, or -1.
func (s *IsoSolver) widx(ikx, ikz int) int {
	if ikx < s.kxlo || ikx >= s.kxhi || ikz < s.kzlo || ikz >= s.kzhi {
		return -1
	}
	return (ikx-s.kxlo)*(s.kzhi-s.kzlo) + (ikz - s.kzlo)
}

// modeOf inverts widx: local slot -> global (ikx, ikz).
func (s *IsoSolver) modeOf(w int) (int, int) {
	nkz := s.kzhi - s.kzlo
	return s.kxlo + w/nkz, s.kzlo + w%nkz
}

// World returns the full communicator backing the process grid.
func (s *IsoSolver) World() *mpi.Comm { return s.D.Cart.Comm }

// Telemetry returns this rank's collector (nil when unset).
func (s *IsoSolver) Telemetry() *telemetry.Collector { return s.tel }

// Nu returns the kinematic viscosity 1/ReTau.
func (s *IsoSolver) Nu() float64 { return s.nu }

// Workload interface accessors.
func (s *IsoSolver) WorkloadName() string { return WorkloadIsotropic }
func (s *IsoSolver) CurrentStep() int     { return s.Step }
func (s *IsoSolver) CurrentTime() float64 { return s.Time }
func (s *IsoSolver) CurrentDt() float64   { return s.Cfg.Dt }
func (s *IsoSolver) SetDt(dt float64)     { s.Cfg.Dt = dt }

// VelCoef returns one component's spectral column for a locally owned
// (ikx, ikz) mode (nil if not owned). The slice aliases solver state.
func (s *IsoSolver) VelCoef(comp, ikx, ikz int) []complex128 {
	w := s.widx(ikx, ikz)
	if w < 0 {
		return nil
	}
	return [3][][]complex128{s.cu, s.cv, s.cw}[comp][w]
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

// isoNonlinear fills ws.prodsY with the fully spectral dealiased product
// fields uu, uv, uw, vv, vw, ww of the current state.
func (s *IsoSolver) isoNonlinear() {
	d := s.D
	ws := s.ws
	g := s.G
	ny := s.Cfg.Ny
	nz, mz := g.Nz, g.MZ()
	nkx, mx := g.NKx(), g.MX()

	// Inverse y FFT: spectral columns -> y-physical lines, per component.
	sp := s.tel.Begin(telemetry.PhaseFFTInverse)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			_, ikz := s.modeOf(w)
			if g.IsNyquistZ(ikz) {
				continue // stays zero
			}
			base := w * ny
			s.planY.Inverse(ws.velY[0][base:base+ny], s.cu[w])
			s.planY.Inverse(ws.velY[1][base:base+ny], s.cv[w])
			s.planY.Inverse(ws.velY[2][base:base+ny], s.cw[w])
		}
	})
	sp.End()

	// y-pencils -> z-pencils, padded inverse z transform.
	d.YtoZ(ws.zpVel, ws.velY)
	yl, yh := d.YRange()
	nyLoc := yh - yl
	linesZ := (s.kxhi - s.kxlo) * nyLoc
	sp = s.tel.Begin(telemetry.PhaseFFTInverse)
	s.pool().ForBlocksIndexed(linesZ, func(blk, lo, hi int) {
		scratch := ws.workers[blk].zscr
		for f := 0; f < 3; f++ {
			src, dst := ws.zpVel[f], ws.zphys[f]
			for l := lo; l < hi; l++ {
				s.padZ.InversePaddedScratch(dst[l*mz:(l+1)*mz], src[l*nz:(l+1)*nz], scratch)
			}
		}
	})
	sp.End()

	// z-pencils -> x-pencils, the fused x excursion: inverse transform,
	// pointwise products, forward truncated transform.
	d.ZtoX(ws.xp, ws.zphys, mz)
	zxl, zxh := d.ZRangeX(mz)
	linesX := nyLoc * (zxh - zxl)
	var maxMu sync.Mutex
	var gMax [3]float64
	sp = s.tel.Begin(telemetry.PhaseNonlinear)
	s.pool().ForBlocksIndexed(linesX, func(blk, lo, hi int) {
		w := &ws.workers[blk]
		pu, pv, pw := w.phys[0], w.phys[1], w.phys[2]
		pp := w.prod
		scratch := w.xscr
		var bMax [3]float64
		for l := lo; l < hi; l++ {
			s.padX.InversePaddedScratch(pu, ws.xp[0][l*nkx:(l+1)*nkx], scratch)
			s.padX.InversePaddedScratch(pv, ws.xp[1][l*nkx:(l+1)*nkx], scratch)
			s.padX.InversePaddedScratch(pw, ws.xp[2][l*nkx:(l+1)*nkx], scratch)
			for i := 0; i < mx; i++ {
				bMax[0] = math.Max(bMax[0], math.Abs(pu[i]))
				bMax[1] = math.Max(bMax[1], math.Abs(pv[i]))
				bMax[2] = math.Max(bMax[2], math.Abs(pw[i]))
			}
			forward := func(f int, a, b []float64) {
				for i := 0; i < mx; i++ {
					pp[i] = a[i] * b[i]
				}
				s.padX.ForwardTruncatedScratch(ws.prodX[f][l*nkx:(l+1)*nkx], pp, scratch)
			}
			forward(pUU, pu, pu)
			forward(pUV, pu, pv)
			forward(pUW, pu, pw)
			forward(pVV, pv, pv)
			forward(pVW, pv, pw)
			forward(pWW, pw, pw)
		}
		maxMu.Lock()
		for c := 0; c < 3; c++ {
			gMax[c] = math.Max(gMax[c], bMax[c])
		}
		maxMu.Unlock()
	})
	sp.End()
	s.physMaxMu.Lock()
	s.physMax = gMax
	s.physMaxCurrent = true
	s.physMaxMu.Unlock()

	// Reverse path: x-pencils -> z-pencils, truncated forward z transform,
	// back to y-pencils.
	d.XtoZ(ws.zpProd, ws.prodX, mz)
	sp = s.tel.Begin(telemetry.PhaseFFTForward)
	s.pool().ForBlocksIndexed(linesZ, func(blk, lo, hi int) {
		scratch := ws.workers[blk].zscr
		for f := 0; f < nProducts; f++ {
			src, dst := ws.zpProd[f], ws.zspec[f]
			for l := lo; l < hi; l++ {
				s.padZ.ForwardTruncatedScratch(dst[l*nz:(l+1)*nz], src[l*mz:(l+1)*mz], scratch)
			}
		}
	})
	sp.End()
	d.ZtoY(ws.prodsY, ws.zspec)

	// Forward y FFT with the 2/3-rule truncation, folding in the 1/Ny
	// normalization of the round trip.
	inv := 1 / float64(ny)
	sp = s.tel.Begin(telemetry.PhaseFFTForward)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		yline := ws.workers[blk].yline
		for w := wlo; w < whi; w++ {
			_, ikz := s.modeOf(w)
			if g.IsNyquistZ(ikz) {
				continue
			}
			base := w * ny
			for f := 0; f < nProducts; f++ {
				line := ws.prodsY[f][base : base+ny]
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
}

// isoAdvance assembles the divergence-form nonlinear term from the product
// spectra, projects it divergence-free, stores it for the next substep's
// explicit combination, and performs the diagonal IMEX advance
//
//	u_new = (u*(1 - alpha*dt*nu*k2) + dt*(gamma*N + zeta*N_prev)) / (1 + beta*dt*nu*k2).
//
// The k = 0 mode (no mean flow) and all dealiased slots stay pinned at zero.
func (s *IsoSolver) isoAdvance(sub int, dt float64) {
	sp := s.tel.Begin(telemetry.PhaseViscousSolve)
	ws := s.ws
	g := s.G
	ny := s.Cfg.Ny
	ga := complex(rkGamma[sub], 0)
	ze := complex(rkZeta[sub], 0)
	al := rkAlpha[sub] * dt * s.nu
	be := rkBeta[sub] * dt * s.nu
	cdt := complex(dt, 0)
	nl := !s.Cfg.DisableNonlinear
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
			hu, hv, hw := ws.hCur[0][w], ws.hCur[1][w], ws.hCur[2][w]
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
				if nl {
					ckx, cky, ckz := complex(kx, 0), complex(kyv, 0), complex(kz, 0)
					// N_i = -i k_j (u_j u_i)-hat from the six products.
					nu = -iC * (ckx*ws.prodsY[pUU][base+j] + cky*ws.prodsY[pUV][base+j] + ckz*ws.prodsY[pUW][base+j])
					nv = -iC * (ckx*ws.prodsY[pUV][base+j] + cky*ws.prodsY[pVV][base+j] + ckz*ws.prodsY[pVW][base+j])
					nw = -iC * (ckx*ws.prodsY[pUW][base+j] + cky*ws.prodsY[pVW][base+j] + ckz*ws.prodsY[pWW][base+j])
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
	t0 := time.Now()
	dt := s.Cfg.Dt
	s.trc.BeginStep(int64(s.Step))
	for sub := 0; sub < 3; sub++ {
		s.trc.SetStage(sub)
		if !s.Cfg.DisableNonlinear {
			s.isoNonlinear()
		}
		s.isoAdvance(sub, dt)
		s.hPrev, s.ws.hCur = s.ws.hCur, s.hPrev
	}
	s.trc.SetStage(-1)
	s.trc.EndStep(t0, time.Now())
	s.Time += dt
	s.Step++
	s.tel.StepDone(time.Since(t0))
	s.tel.AddFlops(s.stepFlops)
}

// CFLEstimate returns a bound on the convective CFL number at the current
// dt: exact physical maxima when a nonlinear pass has run, else the
// triangle-inequality bound from spectral amplitudes. Collective.
func (s *IsoSolver) CFLEstimate() float64 {
	var m [3]float64
	s.physMaxMu.Lock()
	current := s.physMaxCurrent
	m = s.physMax
	s.physMaxMu.Unlock()
	if current {
		r := mpi.Allreduce(s.World(), mpi.OpMax, m[:])
		copy(m[:], r)
	} else {
		for c := range m {
			m[c] = 0
		}
		for w := 0; w < s.nw; w++ {
			ikx, ikz := s.modeOf(w)
			if s.G.IsNyquistZ(ikz) {
				continue
			}
			wt := 2.0
			if ikx == 0 {
				wt = 1.0
			}
			for j := 0; j < s.Cfg.Ny; j++ {
				m[0] += wt * cmplx.Abs(s.cu[w][j])
				m[1] += wt * cmplx.Abs(s.cv[w][j])
				m[2] += wt * cmplx.Abs(s.cw[w][j])
			}
		}
		r := mpi.Allreduce(s.World(), mpi.OpSum, m[:])
		copy(m[:], r)
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
		wt := 2.0
		if ikx == 0 {
			wt = 1.0
		}
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
	return &ckpt.State{
		Workload: WorkloadIsotropic,
		Nx:       s.Cfg.Nx, Ny: s.Cfg.Ny, Nz: s.Cfg.Nz, NKx: s.G.NKx(),
		Kxlo: s.kxlo, Kxhi: s.kxhi, Kzlo: s.kzlo, Kzhi: s.kzhi,
		Step: int64(s.Step), Time: s.Time, Dt: s.Cfg.Dt,
		Fingerprint: s.Cfg.Fingerprint(),
		CV:          s.cu, CW: s.cv, HgPrev: s.cw, HvPrev: s.hPrev[0],
		Extra:       [][][]complex128{s.hPrev[1], s.hPrev[2]},
	}
}

func (s *IsoSolver) applyRestored(st *ckpt.State) {
	s.Time, s.Step = st.Time, int(st.Step)
	s.Cfg.Dt = st.Dt
	s.physMaxCurrent = false
}
