// Package galerkin implements the B-spline Galerkin wall-normal
// discretization of the channel DNS — the method the production
// ReTau = 5200 computation this paper's code was built toward ultimately
// used (Lee & Moser 2015), provided here as the natural extension of the
// paper's collocation scheme. The weak form brings three structural
// advantages:
//
//   - the v = v' = 0 wall conditions are built into the H^2_0 trial space,
//     eliminating the influence-matrix machinery;
//   - the nonlinear terms are projected by quadrature (no interpolation of
//     pointwise products), removing the wall-normal aliasing of the
//     collocation scheme;
//   - the y-derivatives of the nonlinear fluxes integrate by parts onto the
//     test functions, so no derivatives of products are ever formed.
//
// The Fourier directions, 3/2-rule dealiasing, pencil transposes and IMEX
// RK3 are shared with the collocation solver in internal/core, as are its
// run description (core.Config, with core's defaults and shape checks), its
// SMR'91 table (core.SMR91) and its perturbation rule (core.PerturbMode).
package galerkin

import (
	"channeldns/internal/banded"
	"channeldns/internal/bspline"
)

// quadTables holds a quadrature rule together with basis value/derivative
// tables at its points: tab d[q*(deg+1)+j] is the d-th derivative of basis
// function span[q]-deg+j at point q.
type quadTables struct {
	deg        int
	pts, wts   []float64
	span       []int
	b0, b1, b2 []float64
}

func newQuadTables(b *bspline.Basis, perInterval int) *quadTables {
	deg := b.Degree()
	t := &quadTables{deg: deg}
	t.pts, t.wts = b.QuadratureRule(perInterval)
	nq := len(t.pts)
	t.span = make([]int, nq)
	t.b0 = make([]float64, nq*(deg+1))
	t.b1 = make([]float64, nq*(deg+1))
	t.b2 = make([]float64, nq*(deg+1))
	ders := make([][]float64, 3)
	for i := range ders {
		ders[i] = make([]float64, deg+1)
	}
	for qi, y := range t.pts {
		t.span[qi] = b.EvalDerivs(y, 2, ders)
		copy(t.b0[qi*(deg+1):], ders[0])
		copy(t.b1[qi*(deg+1):], ders[1])
		copy(t.b2[qi*(deg+1):], ders[2])
	}
	return t
}

// NumQuad returns the number of quadrature points.
func (t *quadTables) NumQuad() int { return len(t.pts) }

func (t *quadTables) tab(d int) []float64 {
	switch d {
	case 0:
		return t.b0
	case 1:
		return t.b1
	default:
		return t.b2
	}
}

// eval computes out[q] = sum_j B_j^{(d)}(y_q) c_j from full-basis complex
// coefficients.
func (t *quadTables) eval(out, c []complex128, d int) {
	tab := t.tab(d)
	deg := t.deg
	for qi := range t.pts {
		var sr, si float64
		base := qi * (deg + 1)
		off := t.span[qi] - deg
		for j := 0; j <= deg; j++ {
			a := tab[base+j]
			v := c[off+j]
			sr += a * real(v)
			si += a * imag(v)
		}
		out[qi] = complex(sr, si)
	}
}

// evalReal is eval for real coefficients.
func (t *quadTables) evalReal(out, c []float64, d int) {
	tab := t.tab(d)
	deg := t.deg
	for qi := range t.pts {
		s := 0.0
		base := qi * (deg + 1)
		off := t.span[qi] - deg
		for j := 0; j <= deg; j++ {
			s += tab[base+j] * c[off+j]
		}
		out[qi] = s
	}
}

// project accumulates out_i += s * int B_i^{(d)} f over full-basis rows for
// f given at the quadrature points.
func (t *quadTables) project(out, f []complex128, d int, s complex128) {
	tab := t.tab(d)
	deg := t.deg
	for qi := range t.pts {
		base := qi * (deg + 1)
		off := t.span[qi] - deg
		v := s * complex(t.wts[qi], 0) * f[qi]
		for j := 0; j <= deg; j++ {
			out[off+j] += complex(tab[base+j], 0) * v
		}
	}
}

// projectReal accumulates out_i += s * int B_i^{(d)} f for real data.
func (t *quadTables) projectReal(out, f []float64, d int, s float64) {
	tab := t.tab(d)
	deg := t.deg
	for qi := range t.pts {
		base := qi * (deg + 1)
		off := t.span[qi] - deg
		v := s * t.wts[qi] * f[qi]
		for j := 0; j <= deg; j++ {
			out[off+j] += tab[base+j] * v
		}
	}
}

// weakMatrices holds the banded Galerkin matrices on the full basis:
// M_ij = int B_i B_j, K_ij = int B_i' B_j', Q_ij = int B_i” B_j”.
type weakMatrices struct {
	n, deg  int
	m, k, q *banded.Real
}

func newWeakMatrices(b *bspline.Basis) *weakMatrices {
	n := b.NumBasis()
	deg := b.Degree()
	w := &weakMatrices{
		n: n, deg: deg,
		m: banded.NewReal(n, deg, deg),
		k: banded.NewReal(n, deg, deg),
		q: banded.NewReal(n, deg, deg),
	}
	// deg+1 Gauss points per interval integrate spline products (degree
	// 2*deg) exactly.
	t := newQuadTables(b, deg+1)
	for qi := range t.pts {
		wt := t.wts[qi]
		base := qi * (deg + 1)
		off := t.span[qi] - deg
		for j := 0; j <= deg; j++ {
			row := off + j
			for l := 0; l <= deg; l++ {
				col := off + l
				w.m.Add(row, col, wt*t.b0[base+j]*t.b0[base+l])
				w.k.Add(row, col, wt*t.b1[base+j]*t.b1[base+l])
				w.q.Add(row, col, wt*t.b2[base+j]*t.b2[base+l])
			}
		}
	}
	return w
}

// weakOp is a linear combination of the weak matrices restricted to the
// reduced space dropping lo basis functions at each wall (lo = 1 for H^1_0,
// lo = 2 for H^2_0).
type weakOp struct {
	lo, n int
	mats  []*banded.Real
	cfs   []float64
}

// apply computes out (reduced) = sum_k cfs[k]*mats[k] * x (reduced), with
// dropped boundary coefficients treated as zero. scratch must have length n.
func (op weakOp) apply(out, x, scratch []complex128) {
	n := op.n
	full := scratch[:n]
	for i := range full {
		full[i] = 0
	}
	copy(full[op.lo:n-op.lo], x)
	red := n - 2*op.lo
	tmp := make([]complex128, n)
	for i := 0; i < red; i++ {
		out[i] = 0
	}
	for k, m := range op.mats {
		m.MulVecComplex(tmp, full)
		c := complex(op.cfs[k], 0)
		for i := 0; i < red; i++ {
			out[i] += c * tmp[op.lo+i]
		}
	}
}

// applyReal is apply for real vectors.
func (op weakOp) applyReal(out, x, scratch []float64) {
	n := op.n
	full := scratch[:n]
	for i := range full {
		full[i] = 0
	}
	copy(full[op.lo:n-op.lo], x)
	red := n - 2*op.lo
	tmp := make([]float64, n)
	for i := 0; i < red; i++ {
		out[i] = 0
	}
	for k, m := range op.mats {
		m.MulVec(tmp, full)
		for i := 0; i < red; i++ {
			out[i] += op.cfs[k] * tmp[op.lo+i]
		}
	}
}

// factored builds and factors the reduced banded matrix sum_k cfs[k]*mats[k]
// with the customized compact solver (the weak operators are symmetric
// positive definite, so no pivoting is needed).
func (op weakOp) factored() *banded.Compact {
	n := op.n
	red := n - 2*op.lo
	deg := op.mats[0].KU
	c := banded.NewCompact(red, deg)
	for i := 0; i < red; i++ {
		for j := max(0, i-deg); j <= min(red-1, i+deg); j++ {
			v := 0.0
			for k, m := range op.mats {
				v += op.cfs[k] * m.At(op.lo+i, op.lo+j)
			}
			c.Set(i, j, v)
		}
	}
	if err := c.Factor(); err != nil {
		panic("galerkin: singular weak operator: " + err.Error())
	}
	return c
}
