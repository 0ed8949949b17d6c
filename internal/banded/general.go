// Package banded provides the banded linear algebra of the DNS time advance
// (paper §4.1.1). Three solver families are implemented:
//
//   - Real / Complex: general banded LU with partial pivoting in LAPACK band
//     storage with kl fill rows, the analog of DGBTRF/DGBTRS and
//     ZGBTRF/ZGBTRS. Real matrices with complex right-hand sides can be
//     solved either as two sequential real solves (the "MKL^R" mode of
//     Table 1) or with the full complex routine (the "MKL^C" mode).
//   - Naive: a deliberately plain reference implementation in full band
//     storage mirroring Netlib LAPACK's role as the normalization baseline
//     of Table 1.
//   - Compact: the paper's customized solver. Nonzero boundary-row entries
//     are folded into otherwise-empty band storage (Fig. 3, right panel),
//     factorization skips pivoting (the collocation Helmholtz systems are
//     strongly diagonally dominant), no storage or flops are spent on
//     structural zeros, and real-matrix x complex-RHS solves run natively.
package banded

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when factorization meets a zero (or numerically
// negligible) pivot.
var ErrSingular = errors.New("banded: singular matrix")

// Real is a general real banded matrix with kl subdiagonals and ku
// superdiagonals in LAPACK-style band storage with kl extra fill
// diagonals for partial pivoting.
type Real struct {
	N, KL, KU int
	ldab      int // KL + KU + KL + 1 stored diagonals per row
	ab        []float64
	ipiv      []int
	// nz[i] spans the first to the last column of row i that was given a
	// nonzero value: MulVec and MulVecComplex walk it, not the declared band.
	// Set and Add record it as they go, so matrices shared between
	// goroutines are only ever read.
	nz       []colSpan
	factored bool
}

// colSpan is the column range [first, last] of a row; empty when last < first.
type colSpan struct{ first, last int32 }

// NewReal allocates an n x n real banded matrix with bandwidths kl, ku.
func NewReal(n, kl, ku int) *Real {
	if n <= 0 || kl < 0 || ku < 0 {
		panic(fmt.Sprintf("banded: bad dimensions n=%d kl=%d ku=%d", n, kl, ku))
	}
	ldab := 2*kl + ku + 1
	m := &Real{
		N: n, KL: kl, KU: ku, ldab: ldab,
		ab: make([]float64, n*ldab), ipiv: make([]int, n), nz: make([]colSpan, n),
	}
	for i := range m.nz {
		m.nz[i] = colSpan{first: int32(n), last: -1}
	}
	return m
}

// idx maps logical (i, j) to storage; valid for j-i in [-KL, KU+KL].
func (m *Real) idx(i, j int) int { return i*m.ldab + (j - i + m.KL) }

// note widens row i's nonzero span to column j when v is nonzero.
func (m *Real) note(i, j int, v float64) {
	if v != 0 {
		s := &m.nz[i]
		s.first = min(s.first, int32(j))
		s.last = max(s.last, int32(j))
	}
}

// span returns the entries of row i from its first to its last nonzero
// column, and the first; row is empty for a row of zeros.
func (m *Real) span(i int) (row []float64, first int) {
	first, last := int(m.nz[i].first), int(m.nz[i].last)
	if last < first {
		return nil, 0
	}
	return m.ab[m.idx(i, first) : m.idx(i, last)+1], first
}

func (m *Real) inBand(i, j int) bool {
	d := j - i
	return i >= 0 && i < m.N && j >= 0 && j < m.N && d >= -m.KL && d <= m.KU+m.KL
}

// At returns A(i, j); zero outside the band.
func (m *Real) At(i, j int) float64 {
	if !m.inBand(i, j) {
		return 0
	}
	return m.ab[m.idx(i, j)]
}

// Set assigns A(i, j) = v. j must lie within [i-KL, i+KU].
func (m *Real) Set(i, j int, v float64) {
	if d := j - i; d < -m.KL || d > m.KU {
		panic(fmt.Sprintf("banded: Set outside band (%d,%d) kl=%d ku=%d", i, j, m.KL, m.KU))
	}
	m.ab[m.idx(i, j)] = v
	m.note(i, j, v)
	m.factored = false
}

// Add accumulates A(i, j) += v.
func (m *Real) Add(i, j int, v float64) {
	if d := j - i; d < -m.KL || d > m.KU {
		panic(fmt.Sprintf("banded: Add outside band (%d,%d)", i, j))
	}
	m.ab[m.idx(i, j)] += v
	m.note(i, j, v)
	m.factored = false
}

// MulVec computes y = A*x using the unfactored band entries, each row from
// its first to its last nonzero column in ascending order. It must be called
// before Factor.
func (m *Real) MulVec(y, x []float64) {
	if m.factored {
		panic("banded: MulVec after Factor")
	}
	for i := range m.nz {
		row, first := m.span(i)
		xs := x[first:][:len(row)]
		s := 0.0
		for k, a := range row {
			s += a * xs[k]
		}
		y[i] = s
	}
}

// MulVecComplex computes y = A*x for a complex vector with the real,
// unfactored band entries (two real multiply-adds per element), over the
// same nonzero spans.
func (m *Real) MulVecComplex(y, x []complex128) {
	if m.factored {
		panic("banded: MulVecComplex after Factor")
	}
	for i := range m.nz {
		row, first := m.span(i)
		xs := x[first:][:len(row)]
		var sr, si float64
		for k, a := range row {
			sr += a * real(xs[k])
			si += a * imag(xs[k])
		}
		y[i] = complex(sr, si)
	}
}

// Factor computes the LU factorization with partial pivoting in place.
func (m *Real) Factor() error {
	n, kl, ku := m.N, m.KL, m.KU
	kv := ku + kl // effective upper bandwidth after pivoting
	for k := 0; k < n; k++ {
		// Pivot search in column k, rows k..min(k+kl, n-1).
		p := k
		amax := math.Abs(m.ab[m.idx(k, k)])
		for i := k + 1; i <= min(k+kl, n-1); i++ {
			if a := math.Abs(m.ab[m.idx(i, k)]); a > amax {
				amax, p = a, i
			}
		}
		m.ipiv[k] = p
		if amax == 0 {
			return ErrSingular
		}
		if p != k {
			for j := k; j <= min(k+kv, n-1); j++ {
				m.ab[m.idx(k, j)], m.ab[m.idx(p, j)] = m.ab[m.idx(p, j)], m.ab[m.idx(k, j)]
			}
		}
		piv := m.ab[m.idx(k, k)]
		for i := k + 1; i <= min(k+kl, n-1); i++ {
			l := m.ab[m.idx(i, k)] / piv
			m.ab[m.idx(i, k)] = l
			if l != 0 {
				for j := k + 1; j <= min(k+kv, n-1); j++ {
					m.ab[m.idx(i, j)] -= l * m.ab[m.idx(k, j)]
				}
			}
		}
	}
	m.factored = true
	return nil
}

// Solve overwrites b with the solution of A*x = b. Factor must have been
// called.
func (m *Real) Solve(b []float64) {
	if !m.factored {
		panic("banded: Solve before Factor")
	}
	n, kl := m.N, m.KL
	kv := m.KU + kl
	// Forward: apply P and L.
	for k := 0; k < n; k++ {
		if p := m.ipiv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
		bk := b[k]
		if bk != 0 {
			for i := k + 1; i <= min(k+kl, n-1); i++ {
				b[i] -= m.ab[m.idx(i, k)] * bk
			}
		}
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j <= min(i+kv, n-1); j++ {
			s -= m.ab[m.idx(i, j)] * b[j]
		}
		b[i] = s / m.ab[m.idx(i, i)]
	}
}

// SolveComplexTwoReal solves A*x = b for complex b by rearranging the
// complex vector into two sequential real vectors, solving each, and
// interleaving back — the workaround the paper describes for using
// DGBTRF/DGBTRS on a real matrix with complex data (Table 1, "MKL^R").
func (m *Real) SolveComplexTwoReal(b []complex128) {
	n := m.N
	re := make([]float64, n)
	im := make([]float64, n)
	for i, v := range b[:n] {
		re[i] = real(v)
		im[i] = imag(v)
	}
	m.Solve(re)
	m.Solve(im)
	for i := range b[:n] {
		b[i] = complex(re[i], im[i])
	}
}

// Complex is the complex counterpart of Real (ZGBTRF/ZGBTRS analog).
type Complex struct {
	N, KL, KU int
	ldab      int
	ab        []complex128
	ipiv      []int
	factored  bool
}

// NewComplex allocates an n x n complex banded matrix.
func NewComplex(n, kl, ku int) *Complex {
	if n <= 0 || kl < 0 || ku < 0 {
		panic(fmt.Sprintf("banded: bad dimensions n=%d kl=%d ku=%d", n, kl, ku))
	}
	ldab := 2*kl + ku + 1
	return &Complex{N: n, KL: kl, KU: ku, ldab: ldab, ab: make([]complex128, n*ldab), ipiv: make([]int, n)}
}

func (m *Complex) idx(i, j int) int { return i*m.ldab + (j - i + m.KL) }

// At returns A(i, j); zero outside the band.
func (m *Complex) At(i, j int) complex128 {
	d := j - i
	if i < 0 || i >= m.N || j < 0 || j >= m.N || d < -m.KL || d > m.KU+m.KL {
		return 0
	}
	return m.ab[m.idx(i, j)]
}

// Set assigns A(i, j) = v within the declared band.
func (m *Complex) Set(i, j int, v complex128) {
	if d := j - i; d < -m.KL || d > m.KU {
		panic(fmt.Sprintf("banded: Set outside band (%d,%d)", i, j))
	}
	m.ab[m.idx(i, j)] = v
	m.factored = false
}

// Factor computes the pivoted LU factorization in place.
func (m *Complex) Factor() error {
	n, kl := m.N, m.KL
	kv := m.KU + kl
	for k := 0; k < n; k++ {
		p := k
		amax := cmplx.Abs(m.ab[m.idx(k, k)])
		for i := k + 1; i <= min(k+kl, n-1); i++ {
			if a := cmplx.Abs(m.ab[m.idx(i, k)]); a > amax {
				amax, p = a, i
			}
		}
		m.ipiv[k] = p
		if amax == 0 {
			return ErrSingular
		}
		if p != k {
			for j := k; j <= min(k+kv, n-1); j++ {
				m.ab[m.idx(k, j)], m.ab[m.idx(p, j)] = m.ab[m.idx(p, j)], m.ab[m.idx(k, j)]
			}
		}
		piv := m.ab[m.idx(k, k)]
		for i := k + 1; i <= min(k+kl, n-1); i++ {
			l := m.ab[m.idx(i, k)] / piv
			m.ab[m.idx(i, k)] = l
			if l != 0 {
				for j := k + 1; j <= min(k+kv, n-1); j++ {
					m.ab[m.idx(i, j)] -= l * m.ab[m.idx(k, j)]
				}
			}
		}
	}
	m.factored = true
	return nil
}

// Solve overwrites b with the solution of A*x = b.
func (m *Complex) Solve(b []complex128) {
	if !m.factored {
		panic("banded: Solve before Factor")
	}
	n, kl := m.N, m.KL
	kv := m.KU + kl
	for k := 0; k < n; k++ {
		if p := m.ipiv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
		bk := b[k]
		if bk != 0 {
			for i := k + 1; i <= min(k+kl, n-1); i++ {
				b[i] -= m.ab[m.idx(i, k)] * bk
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j <= min(i+kv, n-1); j++ {
			s -= m.ab[m.idx(i, j)] * b[j]
		}
		b[i] = s / m.ab[m.idx(i, i)]
	}
}
