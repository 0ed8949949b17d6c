package banded

import "fmt"

// collocOrders is the number of derivative orders a Colloc stores: values,
// first and second derivatives.
const collocOrders = 3

// Colloc is a B-spline collocation operator of derivative orders 0..2: row i
// holds, for each order, the entries of the w splines that can be nonzero at
// collocation point i, in one fixed window of columns start[i] ..
// start[i]+w-1. A row therefore stores no band padding and the three orders
// of a row sit side by side, but a window may hold exact zeros (a spline
// that vanishes at the point), which the products below keep.
//
// Each output of Mul, Mul2 and MulReal is its own sum, started at +0, over
// the window in ascending column order. The full-band loop of a general
// banded matrix holding the same entries forms the same nonzero terms in the
// same order and adds only exact zeros beside them, which cannot change a
// sum that starts at +0, so on finite data the two agree bit for bit. Every
// product is written float64(a*x): an explicit conversion rounds, so no
// architecture may fuse it into the following add, and the bits are the same
// wherever the kernel runs.
//
// A Colloc is read-only once built; any number of goroutines may multiply by
// it at once.
type Colloc struct {
	n, w  int
	start []int32
	a     []float64 // a[(i*collocOrders+d)*w+k] = entry (i, start[i]+k) of order d
}

// NewColloc allocates an n-row operator with windows w columns wide, every
// entry zero; SetRow fills it.
func NewColloc(n, w int) *Colloc {
	if n <= 0 || w <= 0 || w > n {
		panic(fmt.Sprintf("banded: bad collocation dimensions n=%d w=%d", n, w))
	}
	return &Colloc{n: n, w: w, start: make([]int32, n), a: make([]float64, n*collocOrders*w)}
}

// N returns the number of rows (and of columns).
func (c *Colloc) N() int { return c.n }

// SetRow places row i's window at columns start .. start+w-1 and copies
// ders[d][:w] into order d for each d < len(ders); orders ders does not
// reach stay zero.
func (c *Colloc) SetRow(i, start int, ders [][]float64) {
	if start < 0 || start+c.w > c.n || len(ders) > collocOrders {
		panic(fmt.Sprintf("banded: collocation row %d at column %d, %d orders (n=%d w=%d)", i, start, len(ders), c.n, c.w))
	}
	c.start[i] = int32(start)
	for d, row := range ders {
		copy(c.row(d, i), row[:c.w])
	}
}

// Row returns the entries of order d in row i, the first at column start.
// The slice aliases the operator.
func (c *Colloc) Row(d, i int) (start int, row []float64) {
	return int(c.start[i]), c.row(d, i)
}

func (c *Colloc) row(d, i int) []float64 {
	o := (i*collocOrders + d) * c.w
	return c.a[o : o+c.w]
}

// Mul computes y = B_d*x for a complex line.
func (c *Colloc) Mul(d int, y, x []complex128) {
	y = y[:c.n]
	if c.w != 8 {
		for i := range y {
			st, r := c.Row(d, i)
			xs := x[st : st+len(r)]
			var sr, si float64
			for k, a := range r {
				sr += float64(a * real(xs[k]))
				si += float64(a * imag(xs[k]))
			}
			y[i] = complex(sr, si)
		}
		return
	}
	for i := range y {
		st := int(c.start[i])
		v := (*[8]complex128)(x[st : st+8])
		o := (i*collocOrders + d) * 8
		r := (*[8]float64)(c.a[o : o+8])
		var sr, si float64
		sr += float64(r[0] * real(v[0]))
		si += float64(r[0] * imag(v[0]))
		sr += float64(r[1] * real(v[1]))
		si += float64(r[1] * imag(v[1]))
		sr += float64(r[2] * real(v[2]))
		si += float64(r[2] * imag(v[2]))
		sr += float64(r[3] * real(v[3]))
		si += float64(r[3] * imag(v[3]))
		sr += float64(r[4] * real(v[4]))
		si += float64(r[4] * imag(v[4]))
		sr += float64(r[5] * real(v[5]))
		si += float64(r[5] * imag(v[5]))
		sr += float64(r[6] * real(v[6]))
		si += float64(r[6] * imag(v[6]))
		sr += float64(r[7] * real(v[7]))
		si += float64(r[7] * imag(v[7]))
		y[i] = complex(sr, si)
	}
}

// Mul2 computes ya = B_da*x and yb = B_db*x in one pass over x, each output
// summed exactly as Mul sums it.
func (c *Colloc) Mul2(da, db int, ya, yb, x []complex128) {
	ya, yb = ya[:c.n], yb[:c.n]
	if c.w != 8 {
		for i := range ya {
			st, ra := c.Row(da, i)
			rb := c.row(db, i)
			xs := x[st : st+len(ra)]
			var ar, ai, br, bi float64
			for k, a := range ra {
				ar += float64(a * real(xs[k]))
				ai += float64(a * imag(xs[k]))
				br += float64(rb[k] * real(xs[k]))
				bi += float64(rb[k] * imag(xs[k]))
			}
			ya[i], yb[i] = complex(ar, ai), complex(br, bi)
		}
		return
	}
	for i := range ya {
		st := int(c.start[i])
		v := (*[8]complex128)(x[st : st+8])
		oa, ob := (i*collocOrders+da)*8, (i*collocOrders+db)*8
		ra, rb := (*[8]float64)(c.a[oa:oa+8]), (*[8]float64)(c.a[ob:ob+8])
		var ar, ai, br, bi float64
		ar += float64(ra[0] * real(v[0]))
		ai += float64(ra[0] * imag(v[0]))
		br += float64(rb[0] * real(v[0]))
		bi += float64(rb[0] * imag(v[0]))
		ar += float64(ra[1] * real(v[1]))
		ai += float64(ra[1] * imag(v[1]))
		br += float64(rb[1] * real(v[1]))
		bi += float64(rb[1] * imag(v[1]))
		ar += float64(ra[2] * real(v[2]))
		ai += float64(ra[2] * imag(v[2]))
		br += float64(rb[2] * real(v[2]))
		bi += float64(rb[2] * imag(v[2]))
		ar += float64(ra[3] * real(v[3]))
		ai += float64(ra[3] * imag(v[3]))
		br += float64(rb[3] * real(v[3]))
		bi += float64(rb[3] * imag(v[3]))
		ar += float64(ra[4] * real(v[4]))
		ai += float64(ra[4] * imag(v[4]))
		br += float64(rb[4] * real(v[4]))
		bi += float64(rb[4] * imag(v[4]))
		ar += float64(ra[5] * real(v[5]))
		ai += float64(ra[5] * imag(v[5]))
		br += float64(rb[5] * real(v[5]))
		bi += float64(rb[5] * imag(v[5]))
		ar += float64(ra[6] * real(v[6]))
		ai += float64(ra[6] * imag(v[6]))
		br += float64(rb[6] * real(v[6]))
		bi += float64(rb[6] * imag(v[6]))
		ar += float64(ra[7] * real(v[7]))
		ai += float64(ra[7] * imag(v[7]))
		br += float64(rb[7] * real(v[7]))
		bi += float64(rb[7] * imag(v[7]))
		ya[i], yb[i] = complex(ar, ai), complex(br, bi)
	}
}

// MulReal computes y = B_d*x for a real line. It runs once per mean profile,
// not per mode, so every width takes the plain loop.
func (c *Colloc) MulReal(d int, y, x []float64) {
	for i := range y[:c.n] {
		st, r := c.Row(d, i)
		xs := x[st : st+len(r)]
		s := 0.0
		for k, a := range r {
			s += float64(a * xs[k])
		}
		y[i] = s
	}
}
