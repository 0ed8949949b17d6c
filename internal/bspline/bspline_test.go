package bspline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitionOfUnity(t *testing.T) {
	for _, degree := range []int{1, 2, 3, 5, 7} {
		b := NewUniform(degree, degree+9, -1, 1)
		vals := make([]float64, degree+1)
		for _, u := range []float64{-1, -0.99, -0.5, 0, 0.3, 0.77, 1} {
			b.EvalBasis(u, vals)
			s := 0.0
			for _, v := range vals {
				s += v
			}
			if math.Abs(s-1) > 1e-12 {
				t.Errorf("degree %d u=%g: basis sums to %g", degree, u, s)
			}
		}
	}
}

func TestBasisNonNegative(t *testing.T) {
	b := NewUniform(7, 20, -1, 1)
	vals := make([]float64, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		u := -1 + 2*rng.Float64()
		b.EvalBasis(u, vals)
		for j, v := range vals {
			if v < -1e-13 {
				t.Fatalf("negative basis value %g at u=%g j=%d", v, u, j)
			}
		}
	}
}

func TestDerivativesMatchFiniteDifference(t *testing.T) {
	b := NewFromBreakpoints(5, []float64{-1, -0.7, -0.2, 0.1, 0.55, 1})
	rng := rand.New(rand.NewSource(2))
	coef := make([]float64, b.NumBasis())
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	h := 1e-6
	for _, u := range []float64{-0.9, -0.5, 0.0, 0.3, 0.8} {
		d1 := b.EvalDeriv(coef, u, 1)
		fd := (b.Eval(coef, u+h) - b.Eval(coef, u-h)) / (2 * h)
		if math.Abs(d1-fd) > 1e-5*(1+math.Abs(d1)) {
			t.Errorf("u=%g: d1=%g fd=%g", u, d1, fd)
		}
		d2 := b.EvalDeriv(coef, u, 2)
		fd2 := (b.Eval(coef, u+h) - 2*b.Eval(coef, u) + b.Eval(coef, u-h)) / (h * h)
		if math.Abs(d2-fd2) > 1e-3*(1+math.Abs(d2)) {
			t.Errorf("u=%g: d2=%g fd2=%g", u, d2, fd2)
		}
	}
}

// Splines of degree p reproduce polynomials up to degree p exactly, and
// their derivatives are exact too.
func TestPolynomialReproduction(t *testing.T) {
	degree := 7
	b := NewFromBreakpoints(degree, ChannelBreakpoints(8, 0.8))
	grev := b.Greville()
	for pdeg := 0; pdeg <= degree; pdeg++ {
		vals := make([]float64, len(grev))
		for i, y := range grev {
			vals[i] = math.Pow(y, float64(pdeg))
		}
		coef := b.Interpolate(vals)
		for _, u := range []float64{-0.95, -0.33, 0.11, 0.72, 1.0} {
			want := math.Pow(u, float64(pdeg))
			if got := b.Eval(coef, u); math.Abs(got-want) > 1e-10 {
				t.Errorf("deg %d at u=%g: %g want %g", pdeg, u, got, want)
			}
			if pdeg >= 1 {
				wantD := float64(pdeg) * math.Pow(u, float64(pdeg-1))
				if got := b.EvalDeriv(coef, u, 1); math.Abs(got-wantD) > 1e-8 {
					t.Errorf("deg %d deriv at u=%g: %g want %g", pdeg, u, got, wantD)
				}
			}
			if pdeg >= 2 {
				wantD2 := float64(pdeg*(pdeg-1)) * math.Pow(u, float64(pdeg-2))
				if got := b.EvalDeriv(coef, u, 2); math.Abs(got-wantD2) > 1e-7 {
					t.Errorf("deg %d 2nd deriv at u=%g: %g want %g", pdeg, u, got, wantD2)
				}
			}
		}
	}
}

func TestGrevilleInsideDomain(t *testing.T) {
	b := NewUniform(7, 24, -1, 1)
	g := b.Greville()
	if len(g) != 24 {
		t.Fatalf("expected 24 Greville points, got %d", len(g))
	}
	if g[0] != -1 || g[len(g)-1] != 1 {
		t.Errorf("Greville endpoints %g %g, want -1 1", g[0], g[len(g)-1])
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Errorf("Greville points not increasing at %d", i)
		}
	}
}

func TestCollocationMatrixMatchesEval(t *testing.T) {
	b := NewUniform(5, 16, -1, 1)
	grev := b.Greville()
	rng := rand.New(rand.NewSource(3))
	coef := make([]float64, b.NumBasis())
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	c := b.Colloc(grev)
	for d := 0; d <= 2; d++ {
		m := b.CollocationMatrix(grev, d)
		y := make([]float64, len(grev))
		c.MulReal(d, y, coef)
		for i, u := range grev {
			want := b.EvalDeriv(coef, u, d)
			band := 0.0
			for j := range coef {
				band += m.At(i, j) * coef[j]
			}
			if math.Abs(y[i]-want) > 1e-9 || math.Abs(band-want) > 1e-9 {
				t.Errorf("d=%d row %d: Colloc %g, CollocationMatrix %g, want %g", d, i, y[i], band, want)
			}
		}
	}
}

func TestIntegrationWeightsExact(t *testing.T) {
	degree := 7
	b := NewFromBreakpoints(degree, ChannelBreakpoints(10, 0.9))
	w := b.IntegrationWeights()
	grev := b.Greville()
	// Integral of y^k over [-1,1] is 0 for odd k, 2/(k+1) for even k.
	for k := 0; k <= degree; k++ {
		vals := make([]float64, len(grev))
		for i, y := range grev {
			vals[i] = math.Pow(y, float64(k))
		}
		coef := b.Interpolate(vals)
		got := 0.0
		for i := range w {
			got += w[i] * coef[i]
		}
		want := 0.0
		if k%2 == 0 {
			want = 2 / float64(k+1)
		}
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("integral of y^%d: %g want %g", k, got, want)
		}
	}
}

func TestChannelBreakpoints(t *testing.T) {
	for _, s := range []float64{0, 0.5, 1} {
		br := ChannelBreakpoints(16, s)
		if br[0] != -1 || br[16] != 1 {
			t.Fatalf("stretch %g: endpoints %g %g", s, br[0], br[16])
		}
		for i := 1; i < len(br); i++ {
			if br[i] <= br[i-1] {
				t.Fatalf("stretch %g: not increasing at %d", s, i)
			}
		}
	}
	// Stretched grids cluster near walls: first interval smaller than middle.
	br := ChannelBreakpoints(16, 1)
	first := br[1] - br[0]
	mid := br[9] - br[8]
	if first >= mid {
		t.Errorf("no wall clustering: first %g mid %g", first, mid)
	}
}

func TestWallRows(t *testing.T) {
	b := NewUniform(7, 20, -1, 1)
	wr := b.WallRows()
	// Clamped basis: value row at a wall is e_0 / e_{nb-1}.
	if math.Abs(wr.LowerVal[0]-1) > 1e-12 {
		t.Errorf("lower value row first entry %g, want 1", wr.LowerVal[0])
	}
	for j := 1; j < len(wr.LowerVal); j++ {
		if math.Abs(wr.LowerVal[j]) > 1e-12 {
			t.Errorf("lower value row entry %d = %g, want 0", j, wr.LowerVal[j])
		}
	}
	if math.Abs(wr.UpperVal[len(wr.UpperVal)-1]-1) > 1e-12 {
		t.Errorf("upper value row last entry %g, want 1", wr.UpperVal[len(wr.UpperVal)-1])
	}
	// Derivative row must kill constants: entries sum to zero.
	s := 0.0
	for _, v := range wr.LowerDer {
		s += v
	}
	if math.Abs(s) > 1e-10 {
		t.Errorf("lower derivative row sums to %g", s)
	}
}

func TestInterpolationRoundTripProperty(t *testing.T) {
	b := NewFromBreakpoints(7, ChannelBreakpoints(12, 0.85))
	grev := b.Greville()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		coef := make([]float64, b.NumBasis())
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		vals := make([]float64, len(grev))
		for i, u := range grev {
			vals[i] = b.Eval(coef, u)
		}
		back := b.Interpolate(vals)
		for i := range coef {
			if math.Abs(back[i]-coef[i]) > 1e-8*(1+math.Abs(coef[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFindSpanEdges(t *testing.T) {
	b := NewUniform(3, 10, 0, 1)
	if s := b.FindSpan(0); s != 3 {
		t.Errorf("FindSpan(0) = %d, want 3", s)
	}
	if s := b.FindSpan(1); s != b.NumBasis()-1 {
		t.Errorf("FindSpan(1) = %d, want %d", s, b.NumBasis()-1)
	}
	// Every interior span index must satisfy knots[i] <= u < knots[i+1].
	for _, u := range []float64{0.01, 0.2, 0.5, 0.75, 0.999} {
		i := b.FindSpan(u)
		if !(b.knots[i] <= u && u < b.knots[i+1]) {
			t.Errorf("FindSpan(%g) = %d: knots [%g, %g)", u, i, b.knots[i], b.knots[i+1])
		}
	}
}

func BenchmarkEvalDerivsDegree7(b *testing.B) {
	bs := NewUniform(7, 64, -1, 1)
	ders := workDers(2, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bs.EvalDerivs(0.3, 2, ders)
	}
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
