package core

import (
	"fmt"

	"channeldns/internal/banded"
)

// implicitOps caches the factored Helmholtz left-hand sides of one
// transported diffusivity d at one time step size: per advanced mode and
// substep, lhs[w][s] = B0 - beta_s*dt*d*(B2 - k2*B0) with value rows at the
// walls — the three solves of paper Eq. (3) sharing a single matrix structure
// — and the same at k2 = 0 for the mean profile. The cache of nu serves
// omega_y, phi, U and W; the scalar workload adds kappa's for theta and Theta.
type implicitOps struct {
	diff float64
	lhs  [][3]*banded.Compact // unset in the mean and Nyquist slots
	mean [3]*banded.Compact
}

// wnOps caches what the v recovery of one wavenumber needs beside nu's
// left-hand sides: the operator of Eq. (4) and the influence-matrix data that
// enforces v = v' = 0 at the walls.
type wnOps struct {
	k2 float64
	// helm = B2 - k2*B0 with value rows at the walls (only for k2 > 0).
	helm *banded.Compact
	// Influence data per substep: homogeneous v solutions and the inverse
	// influence matrix mapping wall values of phi to wall slopes of v.
	cv1, cv2 [3][]float64
	minv     [3][2][2]float64
}

// opRow is one collocation row evaluated once at construction: the value (d0)
// and second-derivative (d2) entries of the deg+1 splines that are nonzero at
// the row's Greville point, the first of them at column start. Every implicit
// operator of every wavenumber is a combination of these same rows. The first
// and last rows hold only start: they are the wall value rows of s.wall.
type opRow struct {
	start  int
	d0, d2 []float64
}

// collocationRows evaluates the interior rows 1..ny-2 and records where the
// two wall value rows start.
func (s *Solver) collocationRows() []opRow {
	ny := s.Cfg.Ny
	rows := make([]opRow, ny)
	for i := 1; i < ny-1; i++ {
		start, ders := s.B.RowAt(s.grev[i], 2)
		rows[i] = opRow{start: start, d0: ders[0], d2: ders[2]}
	}
	rows[0].start, rows[ny-1].start = s.wall.LowerValStart, s.wall.UpperValStart
	return rows
}

// fillOperator writes the rows of an implicit operator into m: interior
// rows combine the value/second-derivative collocation rows as
// a0*B0 - a2*B2, and the first and last rows are the wall value rows. m is
// an interface, not a func(i, j, v): handing over a matrix then allocates
// nothing, where its bound Set method would, once per operator.
func (s *Solver) fillOperator(m interface{ Set(i, j int, v float64) }, a0, a2 float64) {
	ny := s.Cfg.Ny
	for i := 1; i < ny-1; i++ {
		row := &s.opRows[i]
		for j, d0 := range row.d0 {
			m.Set(i, row.start+j, a0*d0-a2*row.d2[j])
		}
	}
	for j := 0; j <= s.B.Degree(); j++ {
		m.Set(0, s.wall.LowerValStart+j, s.wall.LowerVal[j])
		m.Set(ny-1, s.wall.UpperValStart+j, s.wall.UpperVal[j])
	}
}

// factorOperator materializes a0*B0 - a2*B2 (with wall value rows) in the
// compact format and factors it. Each row is declared at the deg+1 columns
// its splines occupy, so the operator is assembled, eliminated and solved
// against in the same storage. B-spline collocation operators of a Helmholtz
// problem are never singular; one that is means a broken basis.
func (s *Solver) factorOperator(a0, a2 float64) *banded.Compact {
	m, deg := banded.NewCompact(s.Cfg.Ny, 0), s.B.Degree()
	for i, row := range s.opRows {
		m.Widen(i, row.start, row.start+deg)
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
// step dt for the modes ops marks as advanced, and for the mean.
func (s *Solver) buildImplicit(o *implicitOps, dt float64, ops []*wnOps) {
	o.lhs = make([][3]*banded.Compact, len(ops))
	for sub := 0; sub < 3; sub++ {
		o.mean[sub] = s.assembleLHS(rkBeta[sub]*dt*o.diff, 0)
	}
	for w, op := range ops {
		if op == nil {
			continue
		}
		for sub := 0; sub < 3; sub++ {
			o.lhs[w][sub] = s.assembleLHS(rkBeta[sub]*dt*o.diff, op.k2)
		}
	}
}

// ensureOps rebuilds every operator cache when the time step changes: the
// left-hand sides of each transported diffusivity, then per advanced mode the
// v-recovery operator and the influence data of nu's left-hand sides.
func (s *Solver) ensureOps(dt float64) {
	if s.ops != nil && s.opsDt == dt {
		return
	}
	ops := make([]*wnOps, s.nw)
	for w := range ops {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			continue // Nyquist never advanced; mean handled separately
		}
		ops[w] = &wnOps{k2: s.G.K2(ikx, ikz)}
	}
	for _, o := range s.imp {
		s.buildImplicit(o, dt, ops)
	}
	// One slab holds the homogeneous solutions cv1, cv2 of every mode and
	// substep (the few slots of modes that are not advanced stay unused).
	ny := s.Cfg.Ny
	hom := make([]float64, len(ops)*3*2*ny)
	for w, op := range ops {
		if op == nil {
			continue
		}
		op.helm = s.assembleHelm(op.k2)
		for sub := 0; sub < 3; sub++ {
			at := (3*w + sub) * 2 * ny
			op.cv1[sub], op.cv2[sub] = hom[at:at+ny], hom[at+ny:at+2*ny]
			s.buildInfluence(op, s.imp[0].lhs[w][sub], sub)
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
		s.b0.MulVec(vals, rhs)
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
	s.b2.MulVecComplex(dst, c)
	s.b0.MulVecComplex(tmp, c)
	ck2 := complex(k2, 0)
	for i := range dst {
		dst[i] -= ck2 * tmp[i]
	}
}
