package banded

import (
	"fmt"
	"math"
)

// Compact is the customized solver of paper §4.1.1. The matrix is banded
// with half-bandwidth h, with optional extra nonzero entries in the first
// and last few (border) rows — the structure on the left of the paper's
// Fig. 3. Instead of the general LAPACK band layout (center panel), rows are
// stored at exactly their nonzero extent with boundary extras folded into
// otherwise-empty storage (right panel), halving the memory footprint.
// Factorization performs LU without pivoting (the collocation Helmholtz
// systems the DNS solves are strongly diagonally dominant), spends no
// operations on structural zeros, and the solve handles a real matrix with
// a complex right-hand side natively: each inner update is two real
// multiply-adds instead of a full complex multiply or a rearrangement into
// two sequential real vectors.
//
// All rows live back to back in one slab, located by a table of 32-bit row
// extents. A caller that knows its rows' extents declares them through Widen
// on a narrower band (NewCompact(n, 0) for none) and assembles straight into
// the final storage; whatever was declared, Factor first trims every row to
// its first and last stored nonzero, so a caller that declared a full band
// around narrower rows ends with the same layout.
type Compact struct {
	n        int
	ext      []rowExt
	a        []float64 // nil until the layout is resolved, see layout
	factored bool
}

// rowExt locates one row: it stores columns [lo, hi], the diagonal entry
// A(i, i) at a[off] (so A(i, j) is a[off+j-i]).
type rowExt struct{ lo, hi, off int32 }

// lower and upper return the stored entries of row i left and right of the
// diagonal: columns [lo, i) and (i, hi].
func (e rowExt) lower(a []float64, i int) []float64 { return a[e.off-(int32(i)-e.lo) : e.off] }
func (e rowExt) upper(a []float64, i int) []float64 { return a[e.off+1 : e.off+1+(e.hi-int32(i))] }

// place finishes the extent of row i, given that rows before it are placed
// and hold tot entries between them: eliminating row i against row k extends
// it to row k's extent — exactly how boundary extras fold through the band —
// and the row goes next in the slab. It returns the entries held through row i.
func place(ext []rowExt, i int, e rowExt, tot int32) int32 {
	for k := e.lo; k < int32(i); k++ {
		e.hi = max(e.hi, ext[k].hi)
	}
	e.off = tot + int32(i) - e.lo
	ext[i] = e
	return tot + e.hi - e.lo + 1
}

// NewCompact allocates an n x n compact matrix with half-bandwidth h:
// row i initially covers columns [i-h, i+h] clipped to the matrix.
func NewCompact(n, h int) *Compact {
	if n <= 0 || h < 0 {
		panic(fmt.Sprintf("banded: bad compact dimensions n=%d h=%d", n, h))
	}
	c := &Compact{n: n, ext: make([]rowExt, n)}
	for i := range c.ext {
		c.ext[i] = rowExt{lo: int32(max(0, i-h)), hi: int32(min(n-1, i+h))}
	}
	return c
}

// Widen extends row i so it stores columns [lo, hi]; used to declare row
// extents beyond the band before assembly. It panics once assembly has
// started: the layout is resolved at the first Set or Add.
func (c *Compact) Widen(i, lo, hi int) {
	if c.factored {
		panic("banded: compact Widen after Factor")
	}
	if c.a != nil {
		panic("banded: compact Widen after assembly started")
	}
	e := &c.ext[i]
	e.lo = min(e.lo, int32(max(0, lo)))
	e.hi = max(e.hi, int32(min(c.n-1, hi)))
}

// layout resolves the symbolic fill of the declared extents and allocates the
// slab, so entries are assembled, eliminated and solved against in one place.
func (c *Compact) layout() {
	tot := int32(0)
	for i, e := range c.ext {
		tot = place(c.ext, i, e, tot)
	}
	c.a = make([]float64, tot)
}

// open is the slow path of Set and Add: the first entry of a matrix resolves
// its layout, and a call on a factored matrix or outside the row's extent
// panics. It returns row i's extent.
func (c *Compact) open(call string, i, j int) rowExt {
	if c.factored {
		panic("banded: compact " + call + " after Factor")
	}
	if c.a == nil {
		c.layout()
	}
	e := c.ext[i]
	if j < int(e.lo) || j > int(e.hi) {
		panic(fmt.Sprintf("banded: compact %s outside row extent (%d,%d) in [%d,%d]", call, i, j, e.lo, e.hi))
	}
	return e
}

// Set assigns A(i, j) = v. j must lie within the extent of row i. Like Add
// and Widen it panics on a factored matrix, whose storage holds L and U.
func (c *Compact) Set(i, j int, v float64) {
	e := c.ext[i]
	if c.a == nil || c.factored || j < int(e.lo) || j > int(e.hi) {
		e = c.open("Set", i, j)
	}
	c.a[int(e.off)+j-i] = v
}

// Add accumulates A(i, j) += v.
func (c *Compact) Add(i, j int, v float64) {
	e := c.ext[i]
	if c.a == nil || c.factored || j < int(e.lo) || j > int(e.hi) {
		e = c.open("Add", i, j)
	}
	c.a[int(e.off)+j-i] += v
}

// At returns A(i, j), zero outside the stored extent.
func (c *Compact) At(i, j int) float64 {
	if i < 0 || i >= c.n || c.a == nil {
		return 0
	}
	e := c.ext[i]
	if j < int(e.lo) || j > int(e.hi) {
		return 0
	}
	return c.a[int(e.off)+j-i]
}

// N returns the matrix dimension.
func (c *Compact) N() int { return c.n }

// row returns the stored entries of row i, the first of them at column lo.
func (c *Compact) row(i int) (row []float64, lo int) {
	e := c.ext[i]
	return c.a[e.off-(int32(i)-e.lo) : e.off+(e.hi-int32(i))+1], int(e.lo)
}

// trim narrows every row to its first and last stored nonzero (keeping the
// diagonal), resolves the fill of the narrowed extents and closes the rows
// up inside the slab. A trimmed row lies within its old extent and rows only
// move towards the front, so this runs in place, front to back; a full band,
// which has nothing to trim, costs two loads a row.
func (c *Compact) trim() {
	ext, a := c.ext, c.a
	tot := int32(0)
	for i := range ext {
		row, lo := c.row(i)
		first, last := i-lo, i-lo
		for k := 0; k < first; k++ {
			if row[k] != 0 {
				first = k
				break
			}
		}
		for k := len(row) - 1; k > last; k-- {
			if row[k] != 0 {
				last = k
				break
			}
		}
		if first == 0 && last == len(row)-1 && tot == c.ext[i].off-int32(i-lo) {
			tot += int32(len(row)) // nonzero at both ends and nothing before it moved
			continue
		}
		kept := int32(copy(a[tot:], row[first:last+1]))
		end := place(ext, i, rowExt{lo: int32(lo + first), hi: int32(lo + last)}, tot)
		clear(a[tot+kept : end])
		tot = end
	}
	c.a = a[:tot]
}

// Factor computes the in-place LU factorization without pivoting, on rows
// trimmed to their stored nonzeros. Returns ErrSingular on a (near-)zero
// pivot.
func (c *Compact) Factor() error {
	if c.factored {
		panic("banded: compact Factor after Factor")
	}
	if c.a == nil {
		c.layout()
	}
	c.trim()
	// Row-oriented Doolittle: row i is eliminated against every row k of its
	// lower extent in turn, updating columns k+1..hi[k] of both.
	a, ext := c.a, c.ext
	for i, e := range ext {
		for k := int(e.lo); k < i; k++ {
			at := e.off + int32(k-i) // A(i, k)
			l := a[at] / a[ext[k].off]
			a[at] = l
			if l == 0 {
				continue
			}
			u := ext[k].upper(a, k)
			t := a[at+1:][:len(u)]
			for j, v := range u {
				t[j] -= l * v
			}
		}
		if math.Abs(a[e.off]) < 1e-300 {
			return ErrSingular
		}
	}
	c.factored = true
	return nil
}

// SolveComplex overwrites b with the solution of A*x = b for a complex
// right-hand side against the real factors, the native real x complex mode
// of the customized solver. Both sweeps run over re-sliced windows of the
// slab and of b, so the inner loops carry no bounds check and no test for
// zero: every stored entry lies between its row's first and last nonzero.
func (c *Compact) SolveComplex(b []complex128) {
	if !c.factored {
		panic("banded: SolveComplex before Factor")
	}
	a, ext := c.a, c.ext
	b = b[:len(ext)]
	// Forward substitution: y_i = b_i - sum L(i,k) y_k.
	for i := 1; i < len(ext); i++ {
		e := ext[i]
		l := e.lower(a, i)
		y := b[e.lo:i][:len(l)]
		var sr, si float64
		for k, v := range l {
			sr += v * real(y[k])
			si += v * imag(y[k])
		}
		b[i] = complex(real(b[i])-sr, imag(b[i])-si)
	}
	// Back substitution: x_i = (y_i - sum U(i,j) x_j) / U(i,i).
	for i := len(ext) - 1; i >= 0; i-- {
		e := ext[i]
		u := e.upper(a, i)
		x := b[i+1:][:len(u)]
		var sr, si float64
		for k, v := range u {
			sr += v * real(x[k])
			si += v * imag(x[k])
		}
		d := a[e.off]
		b[i] = complex((real(b[i])-sr)/d, (imag(b[i])-si)/d)
	}
}

// SolveComplex2 solves A*x = b for two right-hand sides in one pass over the
// factors, overwriting both. Each solution is bit for bit what SolveComplex
// gives it: the sides share the loads of L and U, not their sums, and the
// substitution, whose every row waits on the row before through one chain of
// additions, runs the four chains side by side.
func (c *Compact) SolveComplex2(b0, b1 []complex128) {
	if !c.factored {
		panic("banded: SolveComplex2 before Factor")
	}
	a, ext := c.a, c.ext
	b0, b1 = b0[:len(ext)], b1[:len(ext)]
	for i := 1; i < len(ext); i++ {
		e := ext[i]
		l := e.lower(a, i)
		y0, y1 := b0[e.lo:i][:len(l)], b1[e.lo:i][:len(l)]
		var r0, i0, r1, i1 float64
		for k, v := range l {
			r0 += v * real(y0[k])
			i0 += v * imag(y0[k])
			r1 += v * real(y1[k])
			i1 += v * imag(y1[k])
		}
		b0[i] = complex(real(b0[i])-r0, imag(b0[i])-i0)
		b1[i] = complex(real(b1[i])-r1, imag(b1[i])-i1)
	}
	for i := len(ext) - 1; i >= 0; i-- {
		e := ext[i]
		u := e.upper(a, i)
		x0, x1 := b0[i+1:][:len(u)], b1[i+1:][:len(u)]
		var r0, i0, r1, i1 float64
		for k, v := range u {
			r0 += v * real(x0[k])
			i0 += v * imag(x0[k])
			r1 += v * real(x1[k])
			i1 += v * imag(x1[k])
		}
		d := a[e.off]
		b0[i] = complex((real(b0[i])-r0)/d, (imag(b0[i])-i0)/d)
		b1[i] = complex((real(b1[i])-r1)/d, (imag(b1[i])-i1)/d)
	}
}

// SolveReal overwrites b with the solution of A*x = b for a real RHS.
func (c *Compact) SolveReal(b []float64) {
	if !c.factored {
		panic("banded: SolveReal before Factor")
	}
	a, ext := c.a, c.ext
	b = b[:len(ext)]
	for i := 1; i < len(ext); i++ {
		e := ext[i]
		l := e.lower(a, i)
		y := b[e.lo:i][:len(l)]
		s := 0.0
		for k, v := range l {
			s += v * y[k]
		}
		b[i] -= s
	}
	for i := len(ext) - 1; i >= 0; i-- {
		e := ext[i]
		u := e.upper(a, i)
		x := b[i+1:][:len(u)]
		s := 0.0
		for k, v := range u {
			s += v * x[k]
		}
		b[i] = (b[i] - s) / a[e.off]
	}
}

// StorageFloats reports the number of float64 values held, for comparing the
// memory footprint against the general band layout (paper: half the memory):
// the declared extents before assembly, with their fill once it has started,
// the trimmed extents with theirs after Factor.
func (c *Compact) StorageFloats() int {
	if c.a != nil {
		return len(c.a)
	}
	tot := 0
	for _, e := range c.ext {
		tot += int(e.hi-e.lo) + 1
	}
	return tot
}
