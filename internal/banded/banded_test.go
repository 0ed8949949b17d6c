package banded

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// denseSolve is the reference: full Gaussian elimination with partial
// pivoting on a dense copy.
func denseSolve(a [][]complex128, b []complex128) []complex128 {
	n := len(b)
	m := make([][]complex128, n)
	for i := range m {
		m[i] = append([]complex128(nil), a[i]...)
	}
	x := append([]complex128(nil), b...)
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if cmplx.Abs(m[i][k]) > cmplx.Abs(m[p][k]) {
				p = i
			}
		}
		m[k], m[p] = m[p], m[k]
		x[k], x[p] = x[p], x[k]
		for i := k + 1; i < n; i++ {
			l := m[i][k] / m[k][k]
			for j := k; j < n; j++ {
				m[i][j] -= l * m[k][j]
			}
			x[i] -= l * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x
}

// randBandReal builds a random diagonally dominant real banded matrix and a
// dense mirror of it.
func randBandReal(rng *rand.Rand, n, kl, ku int) (*Real, [][]complex128) {
	m := NewReal(n, kl, ku)
	dense := make([][]complex128, n)
	for i := range dense {
		dense[i] = make([]complex128, n)
	}
	for i := 0; i < n; i++ {
		for j := max(0, i-kl); j <= min(n-1, i+ku); j++ {
			v := rng.NormFloat64()
			if i == j {
				v += float64(kl+ku+2) * 2 // dominance
			}
			m.Set(i, j, v)
			dense[i][j] = complex(v, 0)
		}
	}
	return m, dense
}

func randComplexVec(rng *rand.Rand, n int) []complex128 {
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return b
}

func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestRealSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, kl, ku int }{{5, 1, 1}, {16, 2, 3}, {33, 4, 4}, {64, 7, 7}, {10, 0, 2}, {10, 3, 0}} {
		m, dense := randBandReal(rng, tc.n, tc.kl, tc.ku)
		b := make([]float64, tc.n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		cb := make([]complex128, tc.n)
		for i := range b {
			cb[i] = complex(b[i], 0)
		}
		want := denseSolve(dense, cb)
		if err := m.Factor(); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		m.Solve(b)
		for i := range b {
			if math.Abs(b[i]-real(want[i])) > 1e-9 {
				t.Fatalf("n=%d kl=%d ku=%d: x[%d]=%g want %g", tc.n, tc.kl, tc.ku, i, b[i], real(want[i]))
			}
		}
	}
}

func TestRealSolveComplexTwoReal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, kl, ku := 40, 3, 3
	m, dense := randBandReal(rng, n, kl, ku)
	b := randComplexVec(rng, n)
	want := denseSolve(dense, b)
	if err := m.Factor(); err != nil {
		t.Fatal(err)
	}
	got := append([]complex128(nil), b...)
	m.SolveComplexTwoReal(got)
	if d := maxDiff(got, want); d > 1e-9 {
		t.Errorf("two-real complex solve differs from dense: %g", d)
	}
}

func TestComplexSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ n, kl, ku int }{{6, 1, 2}, {20, 3, 3}, {48, 5, 5}} {
		m := NewComplex(tc.n, tc.kl, tc.ku)
		dense := make([][]complex128, tc.n)
		for i := range dense {
			dense[i] = make([]complex128, tc.n)
		}
		for i := 0; i < tc.n; i++ {
			for j := max(0, i-tc.kl); j <= min(tc.n-1, i+tc.ku); j++ {
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				if i == j {
					v += complex(float64(tc.kl+tc.ku+2)*2, 0)
				}
				m.Set(i, j, v)
				dense[i][j] = v
			}
		}
		b := randComplexVec(rng, tc.n)
		want := denseSolve(dense, b)
		if err := m.Factor(); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), b...)
		m.Solve(got)
		if d := maxDiff(got, want); d > 1e-9 {
			t.Errorf("n=%d: complex banded differs from dense: %g", tc.n, d)
		}
	}
}

func TestNaiveMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, kl, ku := 30, 4, 4
	nv := NewNaive(n, kl, ku)
	cx := NewComplex(n, kl, ku)
	for i := 0; i < n; i++ {
		for j := max(0, i-kl); j <= min(n-1, i+ku); j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			if i == j {
				v += 20
			}
			nv.Set(i, j, v)
			cx.Set(i, j, v)
		}
	}
	b := randComplexVec(rng, n)
	b2 := append([]complex128(nil), b...)
	if err := nv.Factor(); err != nil {
		t.Fatal(err)
	}
	if err := cx.Factor(); err != nil {
		t.Fatal(err)
	}
	nv.Solve(b)
	cx.Solve(b2)
	if d := maxDiff(b, b2); d > 1e-9 {
		t.Errorf("naive and complex banded disagree: %g", d)
	}
}

// buildBordered builds a diagonally dominant compact matrix with border rows
// carrying extras beyond the band, plus a dense mirror.
func buildBordered(rng *rand.Rand, n, h, border, extra int) (*Compact, [][]complex128) {
	c := NewCompact(n, h)
	for i := 0; i < border; i++ {
		c.Widen(i, 0, min(n-1, h+extra+i))
		c.Widen(n-1-i, max(0, n-1-h-extra-i), n-1)
	}
	dense := make([][]complex128, n)
	for i := range dense {
		dense[i] = make([]complex128, n)
	}
	set := func(i, j int, v float64) {
		c.Set(i, j, v)
		dense[i][j] = complex(v, 0)
	}
	for i := 0; i < n; i++ {
		lo := max(0, i-h)
		hi := min(n-1, i+h)
		if i < border {
			lo, hi = 0, min(n-1, h+extra+i)
		}
		if i >= n-border {
			lo, hi = max(0, n-1-h-extra-(n-1-i)), n-1
		}
		for j := lo; j <= hi; j++ {
			v := rng.NormFloat64()
			if i == j {
				v += float64(2*(h+extra)+4) * 2
			}
			set(i, j, v)
		}
	}
	return c, dense
}

func TestCompactSolveComplexMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, h, border, extra int }{
		{12, 1, 0, 0}, {24, 3, 2, 3}, {50, 4, 4, 5}, {64, 7, 3, 4}, {9, 2, 1, 2},
	} {
		c, dense := buildBordered(rng, tc.n, tc.h, tc.border, tc.extra)
		b := randComplexVec(rng, tc.n)
		want := denseSolve(dense, b)
		if err := c.Factor(); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		got := append([]complex128(nil), b...)
		c.SolveComplex(got)
		if d := maxDiff(got, want); d > 1e-8 {
			t.Errorf("n=%d h=%d border=%d: compact differs from dense by %g", tc.n, tc.h, tc.border, d)
		}
	}
}

func TestCompactSolveRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, _ := buildBordered(rng, 40, 3, 2, 2)
	c2, _ := buildBordered(rand.New(rand.NewSource(6)), 40, 3, 2, 2)
	if err := c.Factor(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Factor(); err != nil {
		t.Fatal(err)
	}
	br := make([]float64, 40)
	for i := range br {
		br[i] = rng.NormFloat64()
	}
	bc := make([]complex128, 40)
	for i := range br {
		bc[i] = complex(br[i], 0)
	}
	c.SolveReal(br)
	c2.SolveComplex(bc)
	for i := range br {
		if math.Abs(br[i]-real(bc[i])) > 1e-10 || math.Abs(imag(bc[i])) > 1e-10 {
			t.Fatalf("real/complex compact solves disagree at %d", i)
		}
	}
}

func TestCompactResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(56)
		h := 1 + rng.Intn(5)
		border := rng.Intn(3)
		c, _ := buildBordered(rng, n, h, border, rng.Intn(3))
		// Mirror for residual before factorization destroys entries.
		mirror, _ := buildBordered(rand.New(rand.NewSource(seed)), n, h, border, 0)
		_ = mirror
		x := randComplexVec(rng, n)
		bb := make([]complex128, n)
		c2 := cloneCompact(c)
		c2.MulVecComplex(bb, x)
		if err := c.Factor(); err != nil {
			return false
		}
		c.SolveComplex(bb)
		return maxDiff(bb, x) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func cloneCompact(c *Compact) *Compact {
	return &Compact{n: c.n, ext: append([]rowExt(nil), c.ext...), a: append([]float64(nil), c.a...)}
}

func TestCompactStorageSmallerThanGeneral(t *testing.T) {
	// Paper: custom format halves memory vs general band storage with fill.
	n, h := 1024, 7
	c := NewCompact(n, h)
	for i := 0; i < n; i++ {
		for j := max(0, i-h); j <= min(n-1, i+h); j++ {
			if i == j {
				c.Set(i, j, 10)
			} else {
				c.Set(i, j, 0.1)
			}
		}
	}
	// General band storage with pivot fill carries kl+ku+kl+1 = 3h+1
	// diagonals; the compact layout carries only the 2h+1 structural ones,
	// a (2h+1)/(3h+1) ratio. (The paper's further factor of two comes from
	// the complex-vs-real element width, which StorageFloats normalizes.)
	general := n * (2*h + h + 1)
	if got := c.StorageFloats(); float64(got) > 0.75*float64(general) {
		t.Errorf("compact storage %d not meaningfully below general %d", got, general)
	}
}

func TestSingularDetection(t *testing.T) {
	m := NewReal(4, 1, 1)
	// Leave the matrix all zero.
	if err := m.Factor(); err != ErrSingular {
		t.Errorf("real: expected ErrSingular, got %v", err)
	}
	c := NewCompact(4, 1)
	c.Set(0, 0, 0)
	c.Set(1, 1, 1)
	c.Set(2, 2, 1)
	c.Set(3, 3, 1)
	if err := c.Factor(); err != ErrSingular {
		t.Errorf("compact: expected ErrSingular, got %v", err)
	}
}

// TestCollocMulMatchesDense: each order of a random collocation operator,
// in the unrolled width 8 and in the plain loop's 6, against the dense
// product of its entries.
func TestCollocMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{6, 8} {
		const n = 20
		c, ms := randColloc(rng, n, w)
		x := randComplexVec(rng, n)
		xr := make([]float64, n)
		for i := range xr {
			xr[i] = real(x[i])
		}
		y, yr := make([]complex128, n), make([]float64, n)
		for d, m := range ms {
			c.Mul(d, y, x)
			c.MulReal(d, yr, xr)
			for i := 0; i < n; i++ {
				var want complex128
				for j := 0; j < n; j++ {
					want += complex(m.At(i, j), 0) * x[j]
				}
				if cmplx.Abs(y[i]-want) > 1e-10 || math.Abs(yr[i]-real(want)) > 1e-10 {
					t.Fatalf("w=%d order %d row %d: Mul %v, MulReal %g, want %v", w, d, i, y[i], yr[i], want)
				}
			}
		}
	}
}

func TestPivotingHandlesNonDominant(t *testing.T) {
	// A matrix that requires pivoting: zero diagonal but nonsingular.
	m := NewReal(3, 1, 1)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	m.Set(1, 2, 1)
	m.Set(2, 1, 1)
	m.Set(2, 2, 1)
	if err := m.Factor(); err != nil {
		t.Fatalf("pivoted factorization failed: %v", err)
	}
	// A = [[0,1,0],[1,0,1],[0,1,1]], solve A*x = [1,2,3] -> x = [0,1,2]... check:
	// row0: x1 = 1; row1: x0+x2 = 2; row2: x1+x2 = 3 -> x2 = 2, x0 = 0.
	b := []float64{1, 2, 3}
	m.Solve(b)
	want := []float64{0, 1, 2}
	for i := range b {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, b[i], want[i])
		}
	}
}

func benchSystem(n, h int) (*Compact, *Real, *Complex, *Naive) {
	rng := rand.New(rand.NewSource(99))
	c := NewCompact(n, h)
	r := NewReal(n, h, h)
	cx := NewComplex(n, h, h)
	nv := NewNaive(n, h, h)
	for i := 0; i < n; i++ {
		for j := max(0, i-h); j <= min(n-1, i+h); j++ {
			v := rng.NormFloat64()
			if i == j {
				v += float64(4*h + 8)
			}
			c.Set(i, j, v)
			r.Set(i, j, v)
			cx.Set(i, j, complex(v, 0))
			nv.Set(i, j, complex(v, 0))
		}
	}
	return c, r, cx, nv
}

func BenchmarkCompactFactorSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, _, _, _ := benchSystem(1024, 3)
		rhs := make([]complex128, 1024)
		for j := range rhs {
			rhs[j] = complex(float64(j), 1)
		}
		b.StartTimer()
		if err := c.Factor(); err != nil {
			b.Fatal(err)
		}
		c.SolveComplex(rhs)
	}
}

func BenchmarkNaiveFactorSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, _, _, nv := benchSystem(1024, 3)
		rhs := make([]complex128, 1024)
		for j := range rhs {
			rhs[j] = complex(float64(j), 1)
		}
		b.StartTimer()
		if err := nv.Factor(); err != nil {
			b.Fatal(err)
		}
		nv.Solve(rhs)
	}
}

// TestCompactMutationAfterFactorPanics: a factored matrix holds L and U in
// the storage of A, possibly trimmed below the declared extent, so writing an
// entry into it (which used to clear the factored flag and let the next
// Factor re-eliminate the half-factored matrix without an error) must panic
// and name the call.
func TestCompactMutationAfterFactorPanics(t *testing.T) {
	c, _, _, _ := benchSystem(12, 2)
	if err := c.Factor(); err != nil {
		t.Fatal(err)
	}
	for call, mutate := range map[string]func(){
		"Set":    func() { c.Set(3, 4, 1) },
		"Add":    func() { c.Add(3, 4, 1) },
		"Widen":  func() { c.Widen(3, 0, 8) },
		"Factor": func() { _ = c.Factor() },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, call+" after Factor") {
					t.Errorf("%s on a factored matrix: recovered %q, want a panic naming the call", call, msg)
				}
			}()
			mutate()
		}()
	}
	// The factors are still intact and usable.
	ref, _, _, _ := benchSystem(12, 2)
	x := randComplexVec(rand.New(rand.NewSource(1)), 12)
	b := make([]complex128, 12)
	ref.MulVecComplex(b, x)
	c.SolveComplex(b)
	if d := maxDiff(b, x); d > 1e-12 {
		t.Errorf("solve after the refused mutations is off by %g", d)
	}
}

// TestSharedOperatorsConcurrentUse: operators are shared read-only state —
// every pool worker of a threaded step multiplies by the same collocation
// operator and solves against the same b0fac. Two goroutines doing so must
// agree with a serial run (and, under -race, touch nothing either of them
// writes).
func TestSharedOperatorsConcurrentUse(t *testing.T) {
	const n, h = 49, 7
	c, _, _, _ := benchSystem(n, h)
	if err := c.Factor(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	r, _ := randColloc(rng, n, h+1)
	x := randComplexVec(rng, n)
	wantMul, wantSol := make([]complex128, n), append([]complex128(nil), x...)
	r.Mul(2, wantMul, x)
	c.SolveComplex(wantSol)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mul, sol := make([]complex128, n), make([]complex128, n)
			for rep := 0; rep < 200; rep++ {
				r.Mul(2, mul, x)
				copy(sol, x)
				c.SolveComplex(sol)
				if maxDiff(mul, wantMul) != 0 || maxDiff(sol, wantSol) != 0 {
					t.Error("concurrent use of a shared operator changed its result")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// MulVecComplex computes y = A*x for a complex vector using the unfactored
// entries (for residual checks). Must be called before Factor.
func (c *Compact) MulVecComplex(y, x []complex128) {
	if c.factored {
		panic("banded: MulVecComplex after Factor")
	}
	if c.a == nil {
		clear(y[:c.n])
		return
	}
	for i := 0; i < c.n; i++ {
		row, lo := c.row(i)
		var sr, si float64
		for k, a := range row {
			xv := x[lo+k]
			sr += a * real(xv)
			si += a * imag(xv)
		}
		y[i] = complex(sr, si)
	}
}
