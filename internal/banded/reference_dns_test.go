package banded_test

import (
	"fmt"
	"math/rand"
	"testing"

	"channeldns/internal/banded"
	"channeldns/internal/bspline"
)

// The DNS's own wall-normal operators, built the way internal/core builds
// them (degree-7 B-splines on the stretched channel breakpoints, collocated
// at the Greville points), held to the frozen kernels of reference_test.go.

const dnsDegree = 7

func dnsBasis(ny int) (*bspline.Basis, []float64) {
	b := bspline.NewFromBreakpoints(dnsDegree, bspline.ChannelBreakpoints(ny-dnsDegree, 0.85))
	return b, b.Greville()
}

// helmholtzRows assembles a0*B0 - a2*B2 on the interior rows and the wall
// value rows on the first and last, declaring each row's extent through
// Widen first when declare is set (the matrix is then created with no band).
func helmholtzRows(b *bspline.Basis, grev []float64, a0, a2 float64, declare bool) func(banded.Assembler) {
	ny := len(grev)
	wall := b.WallRows()
	type row struct {
		start int
		v     []float64
	}
	rows := make([]row, ny)
	for i := 1; i < ny-1; i++ {
		start, ders := b.RowAt(grev[i], 2)
		v := make([]float64, dnsDegree+1)
		for j := range v {
			v[j] = a0*ders[0][j] - a2*ders[2][j]
		}
		rows[i] = row{start, v}
	}
	rows[0] = row{wall.LowerValStart, wall.LowerVal}
	rows[ny-1] = row{wall.UpperValStart, wall.UpperVal}
	return func(a banded.Assembler) {
		if declare {
			for i, r := range rows {
				a.Widen(i, r.start, r.start+dnsDegree)
			}
		}
		for i, r := range rows {
			for j, v := range r.v {
				a.Set(i, r.start+j, v)
			}
		}
	}
}

// TestDNSOperatorsBitIdenticalToReference: B0 - c(B2 - k2*B0) with wall value
// rows over a spread of c = beta*dt*nu and k2, the v-recovery operator
// B2 - k2*B0 and the interpolation matrix B0, each declared as a full
// degree-wide band and through Widen at the rows' own extents.
func TestDNSOperatorsBitIdenticalToReference(t *testing.T) {
	for _, ny := range []int{17, 33, 49} {
		b, grev := dnsBasis(ny)
		rng := rand.New(rand.NewSource(int64(ny)))
		type op struct {
			name   string
			a0, a2 float64
		}
		ops := []op{{"B0", 1, 0}}
		for _, k2 := range []float64{0, 1, 9, 144.5, 2304} {
			ops = append(ops, op{fmt.Sprintf("helm k2=%g", k2), -k2, -1})
			for _, c := range []float64{1e-6, 8.0 / 15 * 2e-4 / 180, 1e-3, 0.05} {
				ops = append(ops, op{fmt.Sprintf("lhs c=%g k2=%g", c, k2), 1 + c*k2, c})
			}
		}
		for _, o := range ops {
			for _, declare := range []bool{false, true} {
				h := dnsDegree
				if declare {
					h = 0
				}
				name := fmt.Sprintf("ny=%d %s declared=%v", ny, o.name, declare)
				banded.CheckCompactAgainstReference(t, name, ny, h, rng, helmholtzRows(b, grev, o.a0, o.a2, declare))
			}
		}
	}
}

// TestCollocationMatVecBitIdenticalToReference: the collocation operator
// every matvec of a substep runs on, against the frozen full-band loops over
// CollocationMatrix of each order, at the DNS's degree 7 (the unrolled
// kernel) and at degrees 3 and 5 (the plain loop).
func TestCollocationMatVecBitIdenticalToReference(t *testing.T) {
	for _, ny := range []int{17, 33, 49} {
		for _, deg := range []int{3, 5, dnsDegree} {
			b := bspline.NewFromBreakpoints(deg, bspline.ChannelBreakpoints(ny-deg, 0.85))
			grev := b.Greville()
			var ms [3]*banded.Real
			for d := range ms {
				ms[d] = b.CollocationMatrix(grev, d)
			}
			rng := rand.New(rand.NewSource(int64(100*ny + deg)))
			banded.CheckCollocAgainstReference(t, fmt.Sprintf("ny=%d degree=%d", ny, deg), b.Colloc(grev), ms, rng)
		}
	}
}

// The two kernels of the time advance at the shape the DNS runs them
// (ny = 49, degree 7): a collocation matvec on a complex line, and a complex
// solve against a factored Helmholtz left-hand side. The full-band random
// systems of BenchmarkCompactFactorSolve have no zeros inside their band and
// cannot see what these rows' narrower extent is worth.

func benchLine(ny int) []complex128 {
	x := make([]complex128, ny)
	for i := range x {
		x[i] = complex(float64(i%17)-8, float64(i%11)-5)
	}
	return x
}

func BenchmarkCollocationMatVec(b *testing.B) {
	basis, grev := dnsBasis(49)
	c := basis.Colloc(grev)
	x, y := benchLine(49), make([]complex128, 49)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Mul(2, y, x)
	}
}

// BenchmarkCollocationMatVecPair: B0*c and B2*c of one line in one pass, as
// the advance forms them; compare with twice the above.
func BenchmarkCollocationMatVecPair(b *testing.B) {
	basis, grev := dnsBasis(49)
	c := basis.Colloc(grev)
	x, y0, y2 := benchLine(49), make([]complex128, 49), make([]complex128, 49)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Mul2(0, 2, y0, y2, x)
	}
}

func benchHelmholtz(b *testing.B) *banded.Compact {
	basis, grev := dnsBasis(49)
	const c, k2 = 8.0 / 15 * 2e-4 / 180, 9.0
	m := banded.NewCompact(49, dnsDegree)
	helmholtzRows(basis, grev, 1+c*k2, c, false)(m)
	if err := m.Factor(); err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkHelmholtzSolve(b *testing.B) {
	m := benchHelmholtz(b)
	rhs, x := benchLine(49), make([]complex128, 49)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, rhs)
		m.SolveComplex(x)
	}
}

// BenchmarkHelmholtzSolvePair: two right-hand sides through the factors in
// one pass, as omega_y and phi of a mode go; compare with twice the above.
func BenchmarkHelmholtzSolvePair(b *testing.B) {
	m := benchHelmholtz(b)
	rhs, x0, x1 := benchLine(49), make([]complex128, 49), make([]complex128, 49)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x0, rhs)
		copy(x1, rhs)
		m.SolveComplex2(x0, x1)
	}
}
