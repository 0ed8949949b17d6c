package banded

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file freezes the package's previous wall-normal kernels — the
// row-wise Compact (one separately allocated slice per row at the declared
// band extent, elimination and substitution behind per-element zero tests)
// and the full-band MulVec/MulVecComplex loops of Real — as the reference
// the slab layout and the fixed-window collocation matvecs (Colloc) are
// compared against. The
// Ref* bodies are verbatim copies; do not tune them. Names are exported so
// the external test package, which can import bspline, builds the DNS's own
// operators against them (reference_dns_test.go).
//
// The package must reproduce the reference bit for bit (math.Float64bits)
// on finite data: it forms the same products in the same ascending column
// order and leaves out only terms whose matrix entry is an exact zero, which
// cannot change an accumulator that starts at +0.

// RefCompact is the row-wise Compact as of PR 20.
type RefCompact struct {
	n        int
	lo       []int       // first stored column of row i
	hi       []int       // last stored column of row i (after symbolic fill)
	rows     [][]float64 // rows[i][j-lo[i]] = A(i, j)
	factored bool
}

func NewRefCompact(n, h int) *RefCompact {
	if n <= 0 || h < 0 {
		panic(fmt.Sprintf("banded: bad compact dimensions n=%d h=%d", n, h))
	}
	c := &RefCompact{n: n, lo: make([]int, n), hi: make([]int, n)}
	for i := 0; i < n; i++ {
		c.lo[i] = max(0, i-h)
		c.hi[i] = min(n-1, i+h)
	}
	return c
}

func (c *RefCompact) Widen(i, lo, hi int) {
	lo = max(0, lo)
	hi = min(c.n-1, hi)
	if lo < c.lo[i] {
		c.lo[i] = lo
	}
	if hi > c.hi[i] {
		c.hi[i] = hi
	}
	if c.rows != nil && c.rows[i] != nil {
		panic("banded: Widen after assembly started on this row")
	}
}

func (c *RefCompact) ensure(i int) []float64 {
	if c.rows == nil {
		c.rows = make([][]float64, c.n)
	}
	if c.rows[i] == nil {
		c.rows[i] = make([]float64, c.hi[i]-c.lo[i]+1)
	}
	return c.rows[i]
}

func (c *RefCompact) Set(i, j int, v float64) {
	if j < c.lo[i] || j > c.hi[i] {
		panic(fmt.Sprintf("banded: compact Set outside row extent (%d,%d) in [%d,%d]", i, j, c.lo[i], c.hi[i]))
	}
	c.ensure(i)[j-c.lo[i]] = v
	c.factored = false
}

func (c *RefCompact) Add(i, j int, v float64) {
	if j < c.lo[i] || j > c.hi[i] {
		panic(fmt.Sprintf("banded: compact Add outside row extent (%d,%d)", i, j))
	}
	c.ensure(i)[j-c.lo[i]] += v
	c.factored = false
}

func (c *RefCompact) Factor() error {
	n := c.n
	// Symbolic pass: final extents.
	for i := 1; i < n; i++ {
		h := c.hi[i]
		for k := c.lo[i]; k < i; k++ {
			if c.hi[k] > h {
				h = c.hi[k]
			}
		}
		if h > c.hi[i] {
			row := make([]float64, h-c.lo[i]+1)
			copy(row, c.ensure(i))
			c.rows[i] = row
			c.hi[i] = h
		} else {
			c.ensure(i)
		}
	}
	c.ensure(0)
	// Numeric pass: row-oriented Doolittle, no pivoting. The inner update
	// loop is unrolled by four, the hand-optimization the paper applies to
	// improve cache reuse in the LU kernel.
	for i := 1; i < n; i++ {
		ri := c.rows[i]
		loi := c.lo[i]
		for k := loi; k < i; k++ {
			piv := c.rows[k][k-c.lo[k]]
			if piv == 0 || math.Abs(piv) < 1e-300 {
				return ErrSingular
			}
			l := ri[k-loi] / piv
			ri[k-loi] = l
			if l == 0 {
				continue
			}
			rk := c.rows[k]
			// Columns k+1..hi[k] in both rows.
			a := ri[k+1-loi : c.hi[k]+1-loi]
			b := rk[k+1-c.lo[k] : c.hi[k]+1-c.lo[k]]
			j := 0
			for ; j+3 < len(a); j += 4 {
				a[j] -= l * b[j]
				a[j+1] -= l * b[j+1]
				a[j+2] -= l * b[j+2]
				a[j+3] -= l * b[j+3]
			}
			for ; j < len(a); j++ {
				a[j] -= l * b[j]
			}
		}
	}
	if c.rows[n-1][n-1-c.lo[n-1]] == 0 {
		return ErrSingular
	}
	c.factored = true
	return nil
}

func (c *RefCompact) SolveComplex(b []complex128) {
	if !c.factored {
		panic("banded: SolveComplex before Factor")
	}
	n := c.n
	// Forward substitution: y_i = b_i - sum L(i,k) y_k.
	for i := 1; i < n; i++ {
		ri := c.rows[i]
		loi := c.lo[i]
		var sr, si float64
		kmax := i - loi
		for k := 0; k < kmax; k++ {
			l := ri[k]
			if l != 0 {
				v := b[loi+k]
				sr += l * real(v)
				si += l * imag(v)
			}
		}
		b[i] = complex(real(b[i])-sr, imag(b[i])-si)
	}
	// Back substitution: x_i = (y_i - sum U(i,j) x_j) / U(i,i).
	for i := n - 1; i >= 0; i-- {
		ri := c.rows[i]
		loi := c.lo[i]
		var sr, si float64
		for j := i + 1; j <= c.hi[i]; j++ {
			u := ri[j-loi]
			if u != 0 {
				v := b[j]
				sr += u * real(v)
				si += u * imag(v)
			}
		}
		d := ri[i-loi]
		b[i] = complex((real(b[i])-sr)/d, (imag(b[i])-si)/d)
	}
}

func (c *RefCompact) SolveReal(b []float64) {
	if !c.factored {
		panic("banded: SolveReal before Factor")
	}
	n := c.n
	for i := 1; i < n; i++ {
		ri := c.rows[i]
		loi := c.lo[i]
		s := 0.0
		for k := 0; k < i-loi; k++ {
			s += ri[k] * b[loi+k]
		}
		b[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		ri := c.rows[i]
		loi := c.lo[i]
		s := 0.0
		for j := i + 1; j <= c.hi[i]; j++ {
			s += ri[j-loi] * b[j]
		}
		b[i] = (b[i] - s) / ri[i-loi]
	}
}

// RefMulVec is Real.MulVec as of PR 20: every column of the declared band.
func RefMulVec(m *Real, y, x []float64) {
	if m.factored {
		panic("banded: MulVec after Factor")
	}
	for i := 0; i < m.N; i++ {
		lo := max(0, i-m.KL)
		hi := min(m.N-1, i+m.KU)
		s := 0.0
		for j := lo; j <= hi; j++ {
			s += m.ab[m.idx(i, j)] * x[j]
		}
		y[i] = s
	}
}

// RefMulVecComplex is Real.MulVecComplex as of PR 20.
func RefMulVecComplex(m *Real, y, x []complex128) {
	if m.factored {
		panic("banded: MulVecComplex after Factor")
	}
	for i := 0; i < m.N; i++ {
		lo := max(0, i-m.KL)
		hi := min(m.N-1, i+m.KU)
		var sr, si float64
		for j := lo; j <= hi; j++ {
			a := m.ab[m.idx(i, j)]
			sr += a * real(x[j])
			si += a * imag(x[j])
		}
		y[i] = complex(sr, si)
	}
}

// Assembler is what an operator is built through: the package's Compact and
// the frozen one both satisfy it.
type Assembler interface {
	Widen(i, lo, hi int)
	Set(i, j int, v float64)
	Add(i, j int, v float64)
}

// CheckCompactAgainstReference assembles the same n x n system, declared at
// half-bandwidth h, into the package's Compact and the frozen one, factors
// both and requires bit-identical solutions of nrhs random real and complex
// right-hand sides.
func CheckCompactAgainstReference(t *testing.T, name string, n, h int, rng *rand.Rand, assemble func(Assembler)) {
	t.Helper()
	got, ref := NewCompact(n, h), NewRefCompact(n, h)
	assemble(got)
	assemble(ref)
	errGot, errRef := got.Factor(), ref.Factor()
	if errGot != nil || errRef != nil {
		t.Fatalf("%s: Factor: %v, reference %v", name, errGot, errRef)
	}
	const nrhs = 3
	for r := 0; r < nrhs; r++ {
		bc, br := randComplexVec(rng, n), make([]float64, n)
		for i := range br {
			br[i] = rng.NormFloat64()
		}
		if r == 0 { // exact zeros and a negative zero in the data too
			bc[0], bc[n/2], br[0], br[n/2] = 0, complex(math.Copysign(0, -1), 1), 0, math.Copysign(0, -1)
		}
		wc, wr := append([]complex128(nil), bc...), append([]float64(nil), br...)
		// The pair solve takes this side first and second, beside another.
		other := randComplexVec(rng, n)
		p0, q0 := append([]complex128(nil), bc...), append([]complex128(nil), other...)
		p1, q1 := append([]complex128(nil), bc...), append([]complex128(nil), other...)
		got.SolveComplex(bc)
		got.SolveComplex2(p0, q0)
		got.SolveComplex2(q1, p1)
		ref.SolveComplex(wc)
		got.SolveReal(br)
		ref.SolveReal(wr)
		for i := range bc {
			if !sameBitsComplex(bc[i], wc[i]) {
				t.Fatalf("%s: SolveComplex[%d] = %v, reference %v", name, i, bc[i], wc[i])
			}
			if !sameBitsComplex(p0[i], wc[i]) || !sameBitsComplex(p1[i], wc[i]) {
				t.Fatalf("%s: SolveComplex2[%d] = %v first, %v second, reference %v", name, i, p0[i], p1[i], wc[i])
			}
			if math.Float64bits(br[i]) != math.Float64bits(wr[i]) {
				t.Fatalf("%s: SolveReal[%d] = %v, reference %v", name, i, br[i], wr[i])
			}
		}
	}
}

// CheckCollocAgainstReference requires c's matvecs of each order d to
// reproduce the frozen full-band loops over ms[d], a general band holding the
// same entries, bit for bit: Mul and MulReal, and Mul2 with d in either
// position beside every order. The inputs are a random line with a -0 in it
// and a line of zeros whose imaginary parts (and every other real entry) are
// -0, whose products are all -0 in a row of nonnegative entries: only a sum
// started at +0 turns them into the reference's +0.
func CheckCollocAgainstReference(t *testing.T, name string, c *Colloc, ms [3]*Real, rng *rand.Rand) {
	t.Helper()
	n := c.N()
	negZero := math.Copysign(0, -1)
	xc, xr := randComplexVec(rng, n), make([]float64, n)
	for i := range xr {
		xr[i] = rng.NormFloat64()
	}
	xc[n/2], xr[n/2] = complex(0, negZero), negZero
	zc, zr := make([]complex128, n), make([]float64, n)
	for i := range zc {
		zc[i] = complex(0, negZero)
		if i%2 == 0 {
			zr[i] = negZero
		}
	}
	ya, yb, wa, wb := make([]complex128, n), make([]complex128, n), make([]complex128, n), make([]complex128, n)
	yr, wr := make([]float64, n), make([]float64, n)
	sameLine := func(call string, got, want []complex128) {
		t.Helper()
		for i := range got {
			if !sameBitsComplex(got[i], want[i]) {
				t.Fatalf("%s: %s[%d] = %v, reference %v", name, call, i, got[i], want[i])
			}
		}
	}
	for li, x := range [][]complex128{xc, zc} {
		for d := 0; d < 3; d++ {
			RefMulVecComplex(ms[d], wa, x)
			c.Mul(d, ya, x)
			sameLine(fmt.Sprintf("line %d Mul(%d)", li, d), ya, wa)
			for e := 0; e < 3; e++ {
				RefMulVecComplex(ms[e], wb, x)
				c.Mul2(d, e, ya, yb, x)
				sameLine(fmt.Sprintf("line %d Mul2(%d, %d) first", li, d, e), ya, wa)
				sameLine(fmt.Sprintf("line %d Mul2(%d, %d) second", li, d, e), yb, wb)
			}
		}
	}
	for li, x := range [][]float64{xr, zr} {
		for d := 0; d < 3; d++ {
			c.MulReal(d, yr, x)
			RefMulVec(ms[d], wr, x)
			for i := range yr {
				if math.Float64bits(yr[i]) != math.Float64bits(wr[i]) {
					t.Fatalf("%s: line %d MulReal(%d)[%d] = %v, reference %v", name, li, d, i, yr[i], wr[i])
				}
			}
		}
	}
}

func sameBitsComplex(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// dominant returns a diagonally dominant entry for (i, j) in a band of
// half-width h.
func dominant(rng *rand.Rand, i, j, h int) float64 {
	v := rng.NormFloat64()
	if i == j {
		v += float64(4*h + 8)
	}
	return v
}

// TestCompactBitIdenticalToReference: random diagonally dominant systems at
// n in {5, 17, 49, 1024}, h in 1..8, in the shapes callers produce — the
// full declared band; rows whose first and last stored entries are exact
// zeros (and some never set at all), with zeros inside the band as well;
// border rows carrying extras declared through Widen; and rows declared
// through Widen alone on a diagonal-only matrix, the way core declares its
// collocation rows.
func TestCompactBitIdenticalToReference(t *testing.T) {
	for _, n := range []int{5, 17, 49, 1024} {
		for h := 1; h <= 8; h++ {
			seed := int64(1000*n + h)
			name := fmt.Sprintf("n=%d h=%d", n, h)

			CheckCompactAgainstReference(t, name+" full band", n, h, rand.New(rand.NewSource(seed)), func(a Assembler) {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < n; i++ {
					for j := max(0, i-h); j <= min(n-1, i+h); j++ {
						a.Set(i, j, dominant(rng, i, j, h))
					}
				}
			})

			CheckCompactAgainstReference(t, name+" stored zeros", n, h, rand.New(rand.NewSource(seed)), func(a Assembler) {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < n; i++ {
					lead, trail := rng.Intn(h+1), rng.Intn(h+1)
					for j := max(0, i-h); j <= min(n-1, i+h); j++ {
						v := dominant(rng, i, j, h)
						switch {
						case j < i-h+lead || j > i+h-trail:
							if rng.Intn(2) == 0 {
								continue // never set
							}
							v = 0
							if rng.Intn(4) == 0 {
								v = math.Copysign(0, -1)
							}
						case j != i && rng.Intn(5) == 0:
							v = 0 // a zero inside the nonzero window
						}
						a.Set(i, j, v)
					}
				}
			})

			CheckCompactAgainstReference(t, name+" border extras", n, h, rand.New(rand.NewSource(seed)), func(a Assembler) {
				rng := rand.New(rand.NewSource(seed))
				border, extra := min(2, n/2), 3
				for i := 0; i < border; i++ {
					a.Widen(i, 0, h+extra+i)
					a.Widen(n-1-i, n-1-h-extra-i, n-1)
				}
				for i := 0; i < n; i++ {
					lo, hi := max(0, i-h), min(n-1, i+h)
					if i < border {
						hi = min(n-1, h+extra+i)
					}
					if i >= n-border {
						lo = max(0, n-1-h-extra-(n-1-i))
					}
					for j := lo; j <= hi; j++ {
						a.Set(i, j, dominant(rng, i, j, h+extra))
					}
					a.Add(i, i, 0.25) // accumulate on top of a set entry
				}
			})
		}
	}
}

// TestCompactWidenDeclaredBitIdenticalToReference: a matrix declared with no
// band at all and then row by row through Widen — each row a window of w
// columns that slides with the row and holds the diagonal, as a collocation
// row at a Greville point does.
func TestCompactWidenDeclaredBitIdenticalToReference(t *testing.T) {
	for _, n := range []int{5, 17, 49, 1024} {
		for w := 2; w <= 9; w++ {
			if w > n {
				continue
			}
			seed := int64(7000*n + w)
			start := func(i int) int { return i * (n - w) / max(1, n-1) }
			CheckCompactAgainstReference(t, fmt.Sprintf("n=%d window=%d", n, w), n, 0, rand.New(rand.NewSource(seed)), func(a Assembler) {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < n; i++ {
					a.Widen(i, start(i), start(i)+w-1)
				}
				for i := 0; i < n; i++ {
					for j := start(i); j < start(i)+w; j++ {
						a.Set(i, j, dominant(rng, i, j, w))
					}
				}
			})
		}
	}
}

// randColloc fills an n-row Colloc of window width w with random rows — exact
// zeros at either end of a window and inside it, -0 entries, a row that is
// never set — and the three general bands (kl = ku = w-1) holding the same
// entries of each order. Each window starts within w-1 columns of its row and
// inside the matrix, so the bands hold it.
func randColloc(rng *rand.Rand, n, w int) (*Colloc, [3]*Real) {
	c := NewColloc(n, w)
	var ms [3]*Real
	for d := range ms {
		ms[d] = NewReal(n, w-1, w-1)
	}
	ders := [][]float64{make([]float64, w), make([]float64, w), make([]float64, w)}
	for i := 0; i < n; i++ {
		if i == n/3 {
			continue // a row that is never set
		}
		lo, hi := max(0, i-w+1), min(i, n-w)
		start := lo + rng.Intn(hi-lo+1)
		for _, row := range ders {
			lead, trail := rng.Intn(w), rng.Intn(w)
			for k := range row {
				switch {
				case k < lead/2 || k >= w-trail/2:
					row[k] = 0
				case rng.Intn(6) == 0:
					row[k] = math.Copysign(0, -1)
				default:
					row[k] = rng.NormFloat64()
				}
			}
		}
		c.SetRow(i, start, ders)
		for d, row := range ders {
			for k, v := range row {
				ms[d].Set(i, start+k, v)
			}
		}
	}
	return c, ms
}

// TestMulVecBitIdenticalToReference: collocation operators of every window
// width up to the unrolled 8 whose rows hold exact zeros at either end of the
// window and inside it, -0 entries and an empty row.
func TestMulVecBitIdenticalToReference(t *testing.T) {
	for _, n := range []int{5, 17, 49, 1024} {
		for w := 1; w <= min(n, 9); w++ {
			rng := rand.New(rand.NewSource(int64(3000*n + w)))
			c, ms := randColloc(rng, n, w)
			CheckCollocAgainstReference(t, fmt.Sprintf("n=%d w=%d", n, w), c, ms, rng)
		}
	}
}
