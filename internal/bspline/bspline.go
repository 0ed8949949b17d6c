// Package bspline implements the wall-normal discretization of the channel
// DNS: B-spline bases of arbitrary degree built from the recurrence of
// DeBoor, clamped knot vectors over arbitrary breakpoint distributions,
// Greville collocation points, banded collocation matrices for function
// values and derivatives, Gauss-Legendre quadrature, and exact integration
// weights. The paper uses 7th-order (degree 7) B-splines selected for their
// resolution properties (Kwok, Moser & Jimenez 2001); the degree is a
// parameter here.
package bspline

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"channeldns/internal/banded"
)

// Basis is a B-spline basis of a fixed degree on a clamped knot vector.
type Basis struct {
	degree int
	knots  []float64 // clamped: degree+1 repeats at each end
	nb     int       // number of basis functions

	// interp is the factored collocation matrix at the Greville points,
	// built by the first Interpolate.
	interp struct {
		once sync.Once
		m    *banded.Real
	}
}

// NewFromBreakpoints constructs a clamped basis of the given degree over the
// strictly increasing breakpoint sequence breaks (at least 2 points).
// The number of basis functions is len(breaks)-1+degree.
func NewFromBreakpoints(degree int, breaks []float64) *Basis {
	if degree < 1 {
		panic(fmt.Sprintf("bspline: degree %d < 1", degree))
	}
	if len(breaks) < 2 {
		panic("bspline: need at least 2 breakpoints")
	}
	for i := 1; i < len(breaks); i++ {
		if breaks[i] <= breaks[i-1] {
			panic("bspline: breakpoints must be strictly increasing")
		}
	}
	m := len(breaks) - 1
	knots := make([]float64, 0, m+1+2*degree)
	for i := 0; i <= degree; i++ {
		knots = append(knots, breaks[0])
	}
	knots = append(knots, breaks[1:m]...)
	for i := 0; i <= degree; i++ {
		knots = append(knots, breaks[m])
	}
	return &Basis{degree: degree, knots: knots, nb: m + degree}
}

// NewUniform constructs a clamped basis of the given degree with nb basis
// functions on [a, b] using uniformly spaced interior breakpoints.
// nb must be at least degree+1.
func NewUniform(degree, nb int, a, b float64) *Basis {
	if nb < degree+1 {
		panic(fmt.Sprintf("bspline: nb=%d < degree+1=%d", nb, degree+1))
	}
	m := nb - degree // number of intervals
	breaks := make([]float64, m+1)
	for i := 0; i <= m; i++ {
		breaks[i] = a + (b-a)*float64(i)/float64(m)
	}
	return NewFromBreakpoints(degree, breaks)
}

// ChannelBreakpoints returns m+1 breakpoints on [-1, 1] clustered toward the
// walls using the Chebyshev-like distribution y_j = -cos(pi*j/m) blended
// with a uniform distribution by the factor stretch in [0, 1]:
// stretch = 0 gives uniform spacing, 1 gives full cosine clustering.
// Wall clustering is essential for resolving the viscous sublayer.
func ChannelBreakpoints(m int, stretch float64) []float64 {
	if m < 1 {
		panic("bspline: need at least one interval")
	}
	if stretch < 0 || stretch > 1 {
		panic("bspline: stretch must be in [0,1]")
	}
	breaks := make([]float64, m+1)
	for j := 0; j <= m; j++ {
		uni := -1 + 2*float64(j)/float64(m)
		cos := -math.Cos(math.Pi * float64(j) / float64(m))
		breaks[j] = (1-stretch)*uni + stretch*cos
	}
	breaks[0], breaks[m] = -1, 1
	return breaks
}

// Degree returns the polynomial degree.
func (b *Basis) Degree() int { return b.degree }

// NumBasis returns the number of basis functions (the y resolution Ny).
func (b *Basis) NumBasis() int { return b.nb }

// Domain returns the interval [a, b] the basis lives on.
func (b *Basis) Domain() (float64, float64) {
	return b.knots[0], b.knots[len(b.knots)-1]
}

// FindSpan locates the knot span index i such that knots[i] <= u < knots[i+1]
// (with the right endpoint mapped into the last span).
func (b *Basis) FindSpan(u float64) int {
	p := b.degree
	n := b.nb - 1
	if u >= b.knots[n+1] {
		return n
	}
	if u <= b.knots[p] {
		return p
	}
	// knots is sorted; search in the valid range [p, n+1).
	i := sort.SearchFloat64s(b.knots[p:n+2], u) + p
	if b.knots[i] > u {
		i--
	}
	return i
}

// EvalBasis computes the degree+1 B-spline basis functions that are nonzero
// at u. It returns the span index i; entry j of vals is the value of basis
// function i-degree+j. vals must have length >= degree+1.
func (b *Basis) EvalBasis(u float64, vals []float64) int {
	p := b.degree
	i := b.FindSpan(u)
	left := make([]float64, p+1)
	right := make([]float64, p+1)
	vals[0] = 1
	for j := 1; j <= p; j++ {
		left[j] = u - b.knots[i+1-j]
		right[j] = b.knots[i+j] - u
		saved := 0.0
		for r := 0; r < j; r++ {
			tmp := vals[r] / (right[r+1] + left[j-r])
			vals[r] = saved + right[r+1]*tmp
			saved = left[j-r] * tmp
		}
		vals[j] = saved
	}
	return i
}

// EvalDerivs computes basis functions and derivatives through order nd at u
// (algorithm A2.3 of Piegl & Tiller). ders must be (nd+1) x (degree+1):
// ders[k][j] is the k-th derivative of basis function span-degree+j.
// It returns the span index.
func (b *Basis) EvalDerivs(u float64, nd int, ders [][]float64) int {
	p := b.degree
	i := b.FindSpan(u)
	if nd > p {
		for k := p + 1; k <= nd; k++ {
			for j := 0; j <= p; j++ {
				ders[k][j] = 0
			}
		}
		nd = p
	}
	ndu := make([][]float64, p+1)
	for j := range ndu {
		ndu[j] = make([]float64, p+1)
	}
	left := make([]float64, p+1)
	right := make([]float64, p+1)
	ndu[0][0] = 1
	for j := 1; j <= p; j++ {
		left[j] = u - b.knots[i+1-j]
		right[j] = b.knots[i+j] - u
		saved := 0.0
		for r := 0; r < j; r++ {
			ndu[j][r] = right[r+1] + left[j-r]
			tmp := ndu[r][j-1] / ndu[j][r]
			ndu[r][j] = saved + right[r+1]*tmp
			saved = left[j-r] * tmp
		}
		ndu[j][j] = saved
	}
	for j := 0; j <= p; j++ {
		ders[0][j] = ndu[j][p]
	}
	var a [2][]float64
	a[0] = make([]float64, p+1)
	a[1] = make([]float64, p+1)
	for r := 0; r <= p; r++ {
		s1, s2 := 0, 1
		a[0][0] = 1
		for k := 1; k <= nd; k++ {
			d := 0.0
			rk := r - k
			pk := p - k
			if r >= k {
				a[s2][0] = a[s1][0] / ndu[pk+1][rk]
				d = a[s2][0] * ndu[rk][pk]
			}
			j1 := 1
			if rk < -1 {
				j1 = -rk
			}
			j2 := k - 1
			if r-1 > pk {
				j2 = p - r
			}
			for j := j1; j <= j2; j++ {
				a[s2][j] = (a[s1][j] - a[s1][j-1]) / ndu[pk+1][rk+j]
				d += a[s2][j] * ndu[rk+j][pk]
			}
			if r <= pk {
				a[s2][k] = -a[s1][k-1] / ndu[pk+1][r]
				d += a[s2][k] * ndu[r][pk]
			}
			ders[k][r] = d
			s1, s2 = s2, s1
		}
	}
	f := float64(p)
	for k := 1; k <= nd; k++ {
		for j := 0; j <= p; j++ {
			ders[k][j] *= f
		}
		f *= float64(p - k)
	}
	return i
}

// Greville returns the Greville abscissae, the collocation points used by
// the DNS: xi_i = (t_{i+1} + ... + t_{i+degree}) / degree.
func (b *Basis) Greville() []float64 {
	p := b.degree
	pts := make([]float64, b.nb)
	for i := 0; i < b.nb; i++ {
		s := 0.0
		for j := 1; j <= p; j++ {
			s += b.knots[i+j]
		}
		pts[i] = s / float64(p)
	}
	// Guard the endpoints against rounding so evaluation stays in-domain.
	pts[0] = b.knots[0]
	pts[b.nb-1] = b.knots[len(b.knots)-1]
	return pts
}

// Eval evaluates the spline with coefficient vector coef at u.
func (b *Basis) Eval(coef []float64, u float64) float64 {
	vals := make([]float64, b.degree+1)
	i := b.EvalBasis(u, vals)
	s := 0.0
	for j := 0; j <= b.degree; j++ {
		s += coef[i-b.degree+j] * vals[j]
	}
	return s
}

// EvalDeriv evaluates the k-th derivative of the spline with coefficients
// coef at u.
func (b *Basis) EvalDeriv(coef []float64, u float64, k int) float64 {
	ders := make([][]float64, k+1)
	for j := range ders {
		ders[j] = make([]float64, b.degree+1)
	}
	i := b.EvalDerivs(u, k, ders)
	s := 0.0
	for j := 0; j <= b.degree; j++ {
		s += coef[i-b.degree+j] * ders[k][j]
	}
	return s
}
