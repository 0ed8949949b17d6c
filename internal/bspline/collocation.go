package bspline

import "channeldns/internal/banded"

// Colloc returns the collocation operator of derivative orders 0..2 at
// points, one row per point, each over the degree+1 basis functions that can
// be nonzero there. Its entries of order d are CollocationMatrix(points, d)'s
// bit for bit: both come from EvalDerivs, whose order-d derivatives do not
// depend on how many orders it is asked for. points must number NumBasis.
func (b *Basis) Colloc(points []float64) *banded.Colloc {
	c := banded.NewColloc(len(points), b.degree+1)
	ders := workDers(2, b.degree)
	for i, u := range points {
		span := b.EvalDerivs(u, 2, ders)
		c.SetRow(i, span-b.degree, ders)
	}
	return c
}

// CollocationMatrix returns the banded matrix C with C[i][j] = d-th
// derivative of basis function j evaluated at points[i]. With Greville
// points the matrix is banded with half-bandwidth degree; kl = ku = degree
// is used. The DNS assembles its Helmholtz operators from these.
func (b *Basis) CollocationMatrix(points []float64, d int) *banded.Real {
	n := len(points)
	m := banded.NewReal(n, b.degree, b.degree)
	ders := workDers(d, b.degree)
	for i, u := range points {
		span := b.EvalDerivs(u, d, ders)
		for j := 0; j <= b.degree; j++ {
			col := span - b.degree + j
			m.Set(i, col, ders[d][j])
		}
	}
	return m
}

// RowAt evaluates all derivative orders 0..nd of the nonzero basis functions
// at u, returning the first nonzero column and a (nd+1) x (degree+1) table.
// This is the assembly primitive for operator and boundary-condition rows.
func (b *Basis) RowAt(u float64, nd int) (startCol int, ders [][]float64) {
	ders = workDers(nd, b.degree)
	span := b.EvalDerivs(u, nd, ders)
	return span - b.degree, ders
}

func workDers(nd, degree int) [][]float64 {
	d := make([][]float64, nd+1)
	for i := range d {
		d[i] = make([]float64, degree+1)
	}
	return d
}

// Interpolate computes spline coefficients that reproduce the values vals at
// the Greville points (vals[i] = s(greville[i])). This is how physical
// collocation data is lifted to B-spline coefficient space. The factored
// interpolation matrix is built on the first call and kept, so a call costs
// one solve and its result.
func (b *Basis) Interpolate(vals []float64) []float64 {
	b.interp.once.Do(func() {
		m := b.CollocationMatrix(b.Greville(), 0)
		if err := m.Factor(); err != nil {
			panic("bspline: singular collocation matrix: " + err.Error())
		}
		b.interp.m = m
	})
	c := append([]float64(nil), vals...)
	b.interp.m.Solve(c)
	return c
}

// IntegrationWeights returns w with integral(s) = sum_i w[i]*c[i] for any
// spline s with coefficients c: the exact integral of basis function i is
// (t_{i+p+1} - t_i)/(p+1).
func (b *Basis) IntegrationWeights() []float64 {
	p := b.degree
	w := make([]float64, b.nb)
	for i := 0; i < b.nb; i++ {
		w[i] = (b.knots[i+p+1] - b.knots[i]) / float64(p+1)
	}
	return w
}

// SecondDerivWallRows returns the operator rows used for boundary
// conditions: value and first-derivative rows at both walls. Each row is
// (startCol, coefficients over degree+1 basis functions). For a clamped
// basis the value rows reduce to single entries on the first/last
// coefficient, while the derivative rows couple the first/last two.
type WallRows struct {
	// Value and derivative rows at the lower (y=a) and upper (y=b) walls.
	LowerValStart, LowerDerStart, UpperValStart, UpperDerStart int
	LowerVal, LowerDer, UpperVal, UpperDer                     []float64
}

// WallRows evaluates the boundary rows at both domain endpoints.
func (b *Basis) WallRows() WallRows {
	a, c := b.Domain()
	ls, ld := b.RowAt(a, 1)
	us, ud := b.RowAt(c, 1)
	return WallRows{
		LowerValStart: ls, LowerDerStart: ls,
		UpperValStart: us, UpperDerStart: us,
		LowerVal: append([]float64(nil), ld[0]...),
		LowerDer: append([]float64(nil), ld[1]...),
		UpperVal: append([]float64(nil), ud[0]...),
		UpperDer: append([]float64(nil), ud[1]...),
	}
}
