package core

import (
	"fmt"
	"math"

	"channeldns/internal/banded"
)

// implicitOps caches the factored Helmholtz left-hand sides of one
// transported diffusivity d at one time step size: per operator set (one per
// distinct k2 of the advanced modes, see wnOps) and substep,
// lhs[set][sub] = B0 - beta_s*dt*d*(B2 - k2*B0) with value rows at the walls —
// the three solves of paper Eq. (3) sharing a single matrix structure — and
// the same at k2 = 0 for the mean profile. The cache of nu serves omega_y,
// phi, U and W; the scalar workload adds kappa's for theta and Theta unless
// kappa equals nu, when theta and Theta solve against nu's.
type implicitOps struct {
	diff float64
	lhs  [][3]*banded.Compact // indexed by wnOps.set
	mean [3]*banded.Compact
}

// wnOps is the operator set of one wavenumber magnitude k2: what the v
// recovery needs beside nu's left-hand sides, the operator of Eq. (4) and the
// influence-matrix data that enforces v = v' = 0 at the walls. Every operator
// of a mode depends on its (kx, kz) only through k2, so every advanced mode
// whose k2 has the same bits points at one set: the +-kz twins always do, and
// on the default 2pi x pi box so do all modes with equal i^2 + 4j^2.
type wnOps struct {
	k2  float64
	set int // this set's slot in every implicitOps.lhs
	// helm = B2 - k2*B0 with value rows at the walls (only for k2 > 0).
	helm *banded.Compact
	// Influence data per substep: homogeneous v solutions and the inverse
	// influence matrix mapping wall values of phi to wall slopes of v.
	cv1, cv2 [3][]float64
	minv     [3][2][2]float64
}

// fillOperator writes the rows of an implicit operator into m: interior
// rows combine the value/second-derivative rows of the collocation operator
// as a0*B0 - a2*B2, so every implicit operator of every wavenumber is a
// combination of the same rows, and the first and last rows are the wall
// value rows. m is
// an interface, not a func(i, j, v): handing over a matrix then allocates
// nothing, where its bound Set method would, once per operator.
func (s *Solver) fillOperator(m interface{ Set(i, j int, v float64) }, a0, a2 float64) {
	ny := s.Cfg.Ny
	for i := 1; i < ny-1; i++ {
		start, r0 := s.colloc.Row(0, i)
		_, r2 := s.colloc.Row(2, i)
		for j, d0 := range r0 {
			m.Set(i, start+j, a0*d0-a2*r2[j])
		}
	}
	for j := 0; j <= s.B.Degree(); j++ {
		m.Set(0, s.wall.LowerValStart+j, s.wall.LowerVal[j])
		m.Set(ny-1, s.wall.UpperValStart+j, s.wall.UpperVal[j])
	}
}

// factorOperator materializes a0*B0 - a2*B2 (with wall value rows) in the
// compact format and factors it. Each row is declared at the deg+1 columns
// its splines occupy (the wall value rows are the collocation rows at the
// walls' Greville points, so they start where those do), so the operator is
// assembled, eliminated and solved against in the same storage. B-spline
// collocation operators of a Helmholtz problem are never singular; one that
// is means a broken basis.
func (s *Solver) factorOperator(a0, a2 float64) *banded.Compact {
	m, deg := banded.NewCompact(s.Cfg.Ny, 0), s.B.Degree()
	for i := 0; i < s.Cfg.Ny; i++ {
		start, _ := s.colloc.Row(0, i)
		m.Widen(i, start, start+deg)
	}
	s.fillOperator(m, a0, a2)
	if err := m.Factor(); err != nil {
		panic(fmt.Sprintf("core: singular implicit operator %g*B0 - %g*B2: %v", a0, a2, err))
	}
	return m
}

// assembleLHS builds B0 - c*(B2 - k2*B0) = (1 + c*k2)*B0 - c*B2 with
// Dirichlet value rows at both walls, factored.
func (s *Solver) assembleLHS(c, k2 float64) *banded.Compact {
	return s.factorOperator(1+c*k2, c)
}

// assembleHelm builds B2 - k2*B0 with Dirichlet value rows at both walls,
// i.e. -k2*B0 + B2 = -(k2*B0 - B2): assembled as a0 = -k2, a2 = -1.
func (s *Solver) assembleHelm(k2 float64) *banded.Compact {
	return s.factorOperator(-k2, -1)
}

// wallDeriv returns v'(-1) and v'(+1) for a complex coefficient vector.
func (s *Solver) wallDeriv(c []complex128) (lo, hi complex128) {
	for j, a := range s.wall.LowerDer {
		col := s.wall.LowerDerStart + j
		if col >= 0 && col < len(c) {
			lo += complex(a, 0) * c[col]
		}
	}
	for j, a := range s.wall.UpperDer {
		col := s.wall.UpperDerStart + j
		if col >= 0 && col < len(c) {
			hi += complex(a, 0) * c[col]
		}
	}
	return lo, hi
}

func (s *Solver) wallDerivReal(c []float64) (lo, hi float64) {
	for j, a := range s.wall.LowerDer {
		col := s.wall.LowerDerStart + j
		if col >= 0 && col < len(c) {
			lo += a * c[col]
		}
	}
	for j, a := range s.wall.UpperDer {
		col := s.wall.UpperDerStart + j
		if col >= 0 && col < len(c) {
			hi += a * c[col]
		}
	}
	return lo, hi
}

// buildImplicit factors the left-hand sides of diffusivity o.diff at time
// step dt for every operator set, and for the mean.
func (s *Solver) buildImplicit(o *implicitOps, dt float64, sets []wnOps) {
	o.lhs = make([][3]*banded.Compact, len(sets))
	for sub := 0; sub < 3; sub++ {
		c := smr91.Beta[sub] * dt * o.diff
		o.mean[sub] = s.assembleLHS(c, 0)
		for i := range sets {
			o.lhs[i][sub] = s.assembleLHS(c, sets[i].k2)
		}
	}
}

// ensureOps rebuilds every operator cache when the time step changes. It
// groups the advanced local modes by the bits of their k2 into operator sets,
// factors the left-hand sides of each transported diffusivity once per set,
// then per set the v-recovery operator and the influence data of nu's
// left-hand sides, and points every advanced mode at its set.
func (s *Solver) ensureOps(dt float64) {
	if s.ops != nil && s.opsDt == dt {
		return
	}
	k2 := func(w int) (float64, bool) {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			return 0, false // Nyquist never advanced; mean handled separately
		}
		return s.G.K2(ikx, ikz), true
	}
	slot := make(map[uint64]int, s.nw) // k2 bits -> set
	for w := 0; w < s.nw; w++ {
		if k, ok := k2(w); ok {
			if _, seen := slot[math.Float64bits(k)]; !seen {
				slot[math.Float64bits(k)] = len(slot)
			}
		}
	}
	sets, ops := make([]wnOps, len(slot)), make([]*wnOps, s.nw)
	for w := range ops {
		if k, ok := k2(w); ok {
			i := slot[math.Float64bits(k)]
			sets[i].k2, sets[i].set = k, i
			ops[w] = &sets[i]
		}
	}
	for _, o := range s.imp {
		s.buildImplicit(o, dt, sets)
	}
	// One slab holds the homogeneous solutions cv1, cv2 of every set and
	// substep.
	ny := s.Cfg.Ny
	hom := make([]float64, len(sets)*3*2*ny)
	for i := range sets {
		op := &sets[i]
		op.helm = s.assembleHelm(op.k2)
		for sub := 0; sub < 3; sub++ {
			at := (3*i + sub) * 2 * ny
			op.cv1[sub], op.cv2[sub] = hom[at:at+ny], hom[at+ny:at+2*ny]
			s.buildInfluence(op, s.imp[0].lhs[i][sub], sub)
		}
	}
	s.ops, s.opsDt = ops, dt
}

// buildInfluence computes the homogeneous influence solutions for substep
// sub, whose nu left-hand side is lhs, into op.cv1[sub] and op.cv2[sub]:
// phi_m solves lhs*phi = 0 with phi(wall_m) = 1, then v_m solves
// helm*v = B0*phi_m with v(+-1) = 0. The 2x2 influence matrix maps the
// homogeneous phi wall values to v wall slopes; its inverse corrects the
// provisional solution so that v'(+-1) = 0.
func (s *Solver) buildInfluence(op *wnOps, lhs *banded.Compact, sub int) {
	ny := s.Cfg.Ny
	solveHom := func(vals []float64, wallRow int) {
		rhs := s.ws.meanS0 // ensureOps runs between substeps, on one goroutine
		clear(rhs)
		rhs[wallRow] = 1
		lhs.SolveReal(rhs) // rhs now holds phi coefficients
		// v from phi: interior rows get B0*phi values; wall rows 0.
		s.colloc.MulReal(0, vals, rhs)
		vals[0], vals[ny-1] = 0, 0
		op.helm.SolveReal(vals)
	}
	cv1, cv2 := op.cv1[sub], op.cv2[sub]
	solveHom(cv1, 0)
	solveHom(cv2, ny-1)
	l1, h1 := s.wallDerivReal(cv1)
	l2, h2 := s.wallDerivReal(cv2)
	det := l1*h2 - l2*h1
	if det == 0 {
		panic("core: singular influence matrix")
	}
	op.minv[sub] = [2][2]float64{
		{h2 / det, -l2 / det},
		{-h1 / det, l1 / det},
	}
}

// applyHelmValues computes (B2 - k2*B0)*c as collocation values, using tmp
// (length >= len(c)) as scratch so the per-substep hot path allocates
// nothing.
func (s *Solver) applyHelmValues(dst, c []complex128, k2 float64, tmp []complex128) {
	s.colloc.Mul2(2, 0, dst, tmp, c)
	ck2 := complex(k2, 0)
	for i := range dst {
		dst[i] -= ck2 * tmp[i]
	}
}
