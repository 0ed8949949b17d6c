package fft

import (
	"math"
	"sync"
)

// bluestein implements the chirp-z transform, turning a DFT of arbitrary
// length n into a cyclic convolution of length m >= 2n-1 where m is a power
// of two. It is the fallback for lengths with prime factors other than
// 2, 3 and 5; the production grid sizes in the DNS (powers of two times the
// 3/2-rule factor of three) never hit this path, but the library stays
// correct for any length.
type bluestein struct {
	n, m  int
	sub   *Plan        // power-of-two plan of length m
	chirp []complex128 // w^(k^2/2) with forward sign, length n
	// bF is the forward transform of the padded conjugate chirp, one per
	// transform direction.
	bF, bI []complex128
	work   sync.Pool // *[]complex128 of length 2m: the two convolution arrays
}

func newBluestein(n int) *bluestein {
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	b := &bluestein{n: n, m: m, sub: NewPlan(m)}
	b.work.New = func() any {
		buf := make([]complex128, 2*m)
		return &buf
	}
	b.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Angle computed modulo 2n to avoid precision loss for large k^2.
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(kk) / float64(n))
		b.chirp[k] = complex(c, s)
	}
	b.bF = b.kernel(+1)
	b.bI = b.kernel(-1)
	return b
}

// kernel builds the transformed convolution kernel for the given sign.
func (b *bluestein) kernel(sign int) []complex128 {
	v := make([]complex128, b.m)
	for k := 0; k < b.n; k++ {
		c := b.chirp[k]
		if sign < 0 {
			c = conj(c)
		}
		// Kernel uses the conjugate chirp relative to the data pre-twist.
		c = conj(c)
		v[k] = c
		if k > 0 {
			v[b.m-k] = c
		}
	}
	out := make([]complex128, b.m)
	b.sub.Forward(out, v)
	return out
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// transform runs the chirp-z transform of direction dir on two pooled work
// arrays of length m.
func (b *bluestein) transform(dst, src []complex128, dir int) {
	work := b.work.Get().(*[]complex128)
	a, fa := (*work)[:b.m], (*work)[b.m:]
	for k := 0; k < b.n; k++ {
		c := b.chirp[k]
		if dir == inverse {
			c = conj(c)
		}
		a[k] = src[k] * c
	}
	for k := b.n; k < b.m; k++ {
		a[k] = 0
	}
	b.sub.Forward(fa, a)
	kern := b.bF
	if dir == inverse {
		kern = b.bI
	}
	for i := range fa {
		fa[i] *= kern[i]
	}
	b.sub.Inverse(a, fa)
	inv := 1 / float64(b.m)
	for k := 0; k < b.n; k++ {
		c := b.chirp[k]
		if dir == inverse {
			c = conj(c)
		}
		dst[k] = a[k] * c * complex(inv, 0)
	}
	b.work.Put(work)
}
