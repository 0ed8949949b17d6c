package core

import (
	"fmt"

	"channeldns/internal/banded"
)

// wnOps caches the factored implicit operators for one wavenumber at one
// time step size: the three substep Helmholtz solves of paper Eq. (3)
// sharing a single matrix structure, the v-recovery operator of Eq. (4),
// and the influence-matrix data that enforces v = v' = 0 at the walls.
type wnOps struct {
	k2 float64
	// lhs[s] = B0 - beta_s*dt*nu*(B2 - k2*B0) with value rows at the walls.
	lhs [3]*banded.Compact
	// helm = B2 - k2*B0 with value rows at the walls (only for k2 > 0).
	helm *banded.Compact
	// Influence data per substep: homogeneous v solutions and the inverse
	// influence matrix mapping wall values of phi to wall slopes of v.
	cv1, cv2 [3][]float64
	minv     [3][2][2]float64
}

// opRow is one interior collocation row evaluated once at construction: the
// value (d0) and second-derivative (d2) entries of the deg+1 splines that
// are nonzero at the row's Greville point, the first of them at column
// start. Every implicit operator of every wavenumber is a combination of
// these same rows.
type opRow struct {
	start  int
	d0, d2 []float64
}

// collocationRows evaluates the interior rows (1..ny-2; the wall rows are
// value rows and come from s.wall).
func (s *Solver) collocationRows() []opRow {
	rows := make([]opRow, s.Cfg.Ny)
	for i := 1; i < s.Cfg.Ny-1; i++ {
		start, ders := s.B.RowAt(s.grev[i], 2)
		rows[i] = opRow{start: start, d0: ders[0], d2: ders[2]}
	}
	return rows
}

// fillOperator writes the rows of an implicit operator through set: interior
// rows combine the value/second-derivative collocation rows as
// a0*B0 - a2*B2, and the first and last rows are the wall value rows.
func (s *Solver) fillOperator(set func(i, j int, v float64), a0, a2 float64) {
	ny := s.Cfg.Ny
	for i := 1; i < ny-1; i++ {
		row := &s.opRows[i]
		for j, d0 := range row.d0 {
			set(i, row.start+j, a0*d0-a2*row.d2[j])
		}
	}
	for j := 0; j <= s.B.Degree(); j++ {
		set(0, s.wall.LowerValStart+j, s.wall.LowerVal[j])
		set(ny-1, s.wall.UpperValStart+j, s.wall.UpperVal[j])
	}
}

// factorOperator materializes a0*B0 - a2*B2 (with wall value rows) in the
// compact format and factors it.
func (s *Solver) factorOperator(a0, a2 float64) (*banded.Compact, error) {
	m := banded.NewCompact(s.Cfg.Ny, s.B.Degree())
	s.fillOperator(m.Set, a0, a2)
	return m, m.Factor()
}

// assembleLHS builds B0 - c*(B2 - k2*B0) = (1 + c*k2)*B0 - c*B2 with
// Dirichlet value rows at both walls, factored.
func (s *Solver) assembleLHS(c, k2 float64) (*banded.Compact, error) {
	return s.factorOperator(1+c*k2, c)
}

// assembleHelm builds B2 - k2*B0 with Dirichlet value rows at both walls,
// i.e. -k2*B0 + B2 = -(k2*B0 - B2): assembled as a0 = -k2, a2 = -1.
func (s *Solver) assembleHelm(k2 float64) (*banded.Compact, error) {
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

// buildOps (re)builds the per-wavenumber operator cache for time step dt.
func (s *Solver) buildOps(dt float64) {
	s.ops = make([]*wnOps, s.nw)
	s.opsDt = dt
	for w := 0; w < s.nw; w++ {
		ikx, ikz := s.modeOf(w)
		if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
			continue // Nyquist never advanced; mean handled separately
		}
		k2 := s.G.K2(ikx, ikz)
		op := &wnOps{k2: k2}
		helm, err := s.assembleHelm(k2)
		if err != nil {
			panic(fmt.Sprintf("core: singular Helmholtz operator k2=%g: %v", k2, err))
		}
		op.helm = helm
		for sub := 0; sub < 3; sub++ {
			c := rkBeta[sub] * dt * s.nu
			lhs, err := s.assembleLHS(c, k2)
			if err != nil {
				panic(fmt.Sprintf("core: singular implicit operator k2=%g: %v", k2, err))
			}
			op.lhs[sub] = lhs
			s.buildInfluence(op, sub)
		}
		s.ops[w] = op
	}
	// Mean-flow implicit operators: B0 - beta*dt*nu*B2 with U(+-1)=0.
	for sub := 0; sub < 3; sub++ {
		c := rkBeta[sub] * dt * s.nu
		m, err := s.assembleLHS(c, 0)
		if err != nil {
			panic(fmt.Sprintf("core: singular mean operator: %v", err))
		}
		s.meanOps[sub] = m
	}
}

// buildInfluence computes the homogeneous influence solutions for substep
// sub: phi_m solves lhs*phi = 0 with phi(wall_m) = 1, then v_m solves
// helm*v = B0*phi_m with v(+-1) = 0. The 2x2 influence matrix maps the
// homogeneous phi wall values to v wall slopes; its inverse corrects the
// provisional solution so that v'(+-1) = 0.
func (s *Solver) buildInfluence(op *wnOps, sub int) {
	ny := s.Cfg.Ny
	solveHom := func(wallRow int) []float64 {
		rhs := make([]float64, ny)
		rhs[wallRow] = 1
		op.lhs[sub].SolveReal(rhs) // rhs now holds phi coefficients
		// v from phi: interior rows get B0*phi values; wall rows 0.
		vals := make([]float64, ny)
		s.b0.MulVec(vals, rhs)
		vals[0], vals[ny-1] = 0, 0
		op.helm.SolveReal(vals)
		return vals
	}
	cv1 := solveHom(0)
	cv2 := solveHom(ny - 1)
	l1, h1 := s.wallDerivReal(cv1)
	l2, h2 := s.wallDerivReal(cv2)
	det := l1*h2 - l2*h1
	if det == 0 {
		panic("core: singular influence matrix")
	}
	op.cv1[sub] = cv1
	op.cv2[sub] = cv2
	op.minv[sub] = [2][2]float64{
		{h2 / det, -l2 / det},
		{-h1 / det, l1 / det},
	}
}

// ensureOps rebuilds the operator cache when the time step changes.
func (s *Solver) ensureOps(dt float64) {
	if s.ops == nil || s.opsDt != dt {
		s.buildOps(dt)
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
