package fft

import "fmt"

// RealPlan transforms real sequences of length N to half-complex spectra of
// NumModes() = N/2+1 coefficients and back. Even lengths use the standard
// half-length complex-packing trick; odd lengths fall back to a full complex
// transform. Conventions match Plan: Forward is unnormalized,
// Inverse(Forward(x)) == N*x.
type RealPlan struct {
	n    int
	nc   int
	half *Plan // length n/2 when n is even
	full *Plan // length n when n is odd
	// twiddles w^k = exp(-2*pi*i*k/n) for k in [0, n/2]
	w []complex128
	// owned scratch backing the nil-scratch convenience paths; using it
	// makes Forward/Inverse non-concurrent (see ForwardScratch).
	scratch []complex128
}

// NewRealPlan creates a real transform plan for length n > 0.
func NewRealPlan(n int) *RealPlan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid real transform length %d", n))
	}
	p := &RealPlan{n: n, nc: n/2 + 1}
	if n%2 == 0 && n > 1 {
		p.half = NewPlan(n / 2)
		p.w = twiddles(n, n/2+1)
	} else {
		p.full = NewPlan(n)
	}
	p.scratch = make([]complex128, p.ScratchLen())
	return p
}

// ScratchLen returns the scratch length (in complex128 elements) that
// ForwardScratch and InverseScratch require: room for both the packed
// input and the transform output, so the underlying complex plan runs
// out-of-place and allocates nothing.
func (p *RealPlan) ScratchLen() int {
	if p.full != nil {
		return 2 * p.n
	}
	return p.n // n/2 packed input + n/2 transform output
}

// NumModes returns the number of stored half-complex coefficients, N/2+1.
func (p *RealPlan) NumModes() int { return p.nc }

// Forward computes the half-complex spectrum of the real sequence src.
// dst must have length >= NumModes() and src length >= N, the physical
// length. It uses the plan's owned scratch, so concurrent calls on one plan
// must go through ForwardScratch with distinct scratch instead.
func (p *RealPlan) Forward(dst []complex128, src []float64) {
	p.ForwardScratch(dst, src, p.scratch)
}

// ForwardScratch is Forward with caller-provided scratch of length
// ScratchLen(); it performs no allocations and is safe for concurrent use
// of one plan with distinct dst/scratch.
func (p *RealPlan) ForwardScratch(dst []complex128, src []float64, scratch []complex128) {
	if len(dst) < p.nc || len(src) < p.n {
		panic("fft: real forward slice lengths")
	}
	if len(scratch) < p.ScratchLen() {
		panic("fft: real forward scratch length")
	}
	if p.full != nil {
		p.forwardFull(dst, src, 1, scratch)
		return
	}
	p.forwardModes(dst, 1, src, 1, scratch, p.nc, 1)
}

// forwardFull is the odd-length forward transform of the points ss apart,
// src[j*ss]: one full-length complex transform.
func (p *RealPlan) forwardFull(dst []complex128, src []float64, ss int, scratch []complex128) {
	buf, out := scratch[:p.n], scratch[p.n:2*p.n]
	for j := range buf {
		buf[j] = complex(src[j*ss], 0)
	}
	p.full.Forward(out, buf)
	copy(dst, out[:p.nc])
}

// forwardModes is the even-length forward transform of the points ss apart,
// src[j*ss], restricted to the first nk <= NumModes() modes, each scaled by s
// and stored at dst[k*stride]: one half-length complex transform of the
// points taken in pairs, then the untangling pass
//
//	E[k] = (Z[k]+conj(Z[h-k]))/2, O[k] = (Z[k]-conj(Z[h-k]))/(2i),
//	X[k] = E[k] + w^k O[k]
//
// for k = 0..h with Z periodic (Z[h] = Z[0]); the two ends are peeled so the
// loop carries no index wrap.
func (p *RealPlan) forwardModes(dst []complex128, stride int, src []float64, ss int, scratch []complex128, nk int, s float64) {
	h := p.n / 2
	z, zt := scratch[:h], scratch[h:][:h]
	if ss == 1 {
		src = src[:2*h]
		for j := range z {
			z[j] = complex(src[2*j], src[2*j+1])
		}
	} else {
		for j := range z {
			z[j] = complex(src[2*j*ss], src[(2*j+1)*ss])
		}
	}
	p.half.Forward(zt, z)
	dst = dst[:span(nk, stride)]
	w := p.w[:nk]
	dst[0] = untangle(zt[0], conj(zt[0]), w[0], s)
	last := nk
	if nk > h {
		dst[h*stride] = untangle(zt[0], conj(zt[0]), w[h], s)
		last = h
	}
	for k, o := 1, stride; k < last; k, o = k+1, o+stride {
		dst[o] = untangle(zt[k], conj(zt[h-k]), w[k], s)
	}
}

// untangle returns s*(E + w*O) for E = (zk+zr)/2 and O = (zk-zr)/(2i). The
// products by (0.5,0), (0,-0.5) and (s,0) are written in their scalar forms
// (a halving, a swap with a sign, a scaling), which equal the complex
// products exactly.
func untangle(zk, zr, w complex128, s float64) complex128 {
	e, d := half(zk+zr), half(zk-zr)
	o := complex(imag(d), -real(d))
	return scale(e+w*o, s)
}

// Inverse computes the unnormalized inverse of a half-complex spectrum,
// writing a real sequence of length N. The imaginary parts of src[0]
// and, for even N, src[N/2] are ignored (they must be zero for a valid
// Hermitian spectrum). Inverse(Forward(x)) == N*x. It uses the plan's
// owned scratch; concurrent callers must use InverseScratch.
func (p *RealPlan) Inverse(dst []float64, src []complex128) {
	p.InverseScratch(dst, src, p.scratch)
}

// InverseScratch is Inverse with caller-provided scratch of length
// ScratchLen(); it performs no allocations and is safe for concurrent use
// of one plan with distinct dst/scratch.
func (p *RealPlan) InverseScratch(dst []float64, src, scratch []complex128) {
	if len(dst) < p.n || len(src) < p.nc {
		panic("fft: real inverse slice lengths")
	}
	if len(scratch) < p.ScratchLen() {
		panic("fft: real inverse scratch length")
	}
	if p.full != nil {
		p.inverseFull(dst, 1, src, scratch)
		return
	}
	p.inverseModes(dst, 1, src, 1, p.nc, scratch)
}

// inverseFull is the odd-length inverse transform writing the points ds
// apart, dst[j*ds]: one full-length complex transform of the Hermitian
// extension of src.
func (p *RealPlan) inverseFull(dst []float64, ds int, src, scratch []complex128) {
	buf, out := scratch[:p.n], scratch[p.n:2*p.n]
	copy(buf, src[:p.nc])
	buf[0] = complex(real(src[0]), 0)
	for k := p.nc; k < p.n; k++ {
		buf[k] = conj(buf[p.n-k])
	}
	p.full.Inverse(out, buf)
	for j, v := range out {
		dst[j*ds] = real(v)
	}
}

// inverseModes is the even-length inverse transform of a spectrum whose
// modes k >= nk are zero and are not read (nk <= NumModes()) and whose mode k
// is src[k*stride], writing the points ds apart, dst[j*ds]: the tangling
// pass Z[k] = E[k] + i*O[k] with E[k] = (X[k]+conj(X[h-k]))/2 and
// O[k] = w^-k (X[k]-conj(X[h-k]))/2, one half-length complex transform, and
// the points written out in pairs. Where one of X[k], X[h-k] is a known
// zero, E and the half difference are the same number up to sign and are
// formed once.
func (p *RealPlan) inverseModes(dst []float64, ds int, src []complex128, stride, nk int, scratch []complex128) {
	h := p.n / 2
	z, zt := scratch[:h], scratch[h:][:h]
	src = src[:span(nk, stride)]
	w := p.w[:h]
	var xh complex128
	if h < nk {
		xh = complex(real(src[h*stride]), 0)
	}
	z[0] = tangle(complex(real(src[0]), 0), xh, w[0])
	// X[k] is carried for k < nk, X[h-k] for k > h-nk.
	onlyK, both := min(nk, h-nk+1), min(nk, h)
	for k := 1; k < onlyK; k++ {
		e := half(src[k*stride])
		z[k] = tangleHalves(e, e, w[k])
	}
	for k := max(1, onlyK); k <= h-nk; k++ {
		z[k] = 0
	}
	for k := max(1, h-nk+1); k < both; k++ {
		z[k] = tangle(src[k*stride], conj(src[(h-k)*stride]), w[k])
	}
	for k := max(1, h-nk+1, both); k < h; k++ {
		e := half(conj(src[(h-k)*stride]))
		z[k] = tangleHalves(e, -e, w[k])
	}
	p.half.Inverse(zt, z)
	if ds == 1 {
		dst = dst[:2*h]
		for j, v := range zt {
			dst[2*j] = 2 * real(v)
			dst[2*j+1] = 2 * imag(v)
		}
		return
	}
	for j, v := range zt {
		dst[2*j*ds] = 2 * real(v)
		dst[(2*j+1)*ds] = 2 * imag(v)
	}
}

// half returns c*(0.5,0) in its scalar form.
func half(c complex128) complex128 { return complex(real(c)*0.5, imag(c)*0.5) }

// tangle returns E + i*O for E = (xk+xr)/2 and O = conj(w)*(xk-xr)/2.
func tangle(xk, xr, w complex128) complex128 {
	return tangleHalves(half(xk+xr), half(xk-xr), w)
}

// tangleHalves returns e + i*(conj(w)*d); the product by (0,1) is a swap
// and a sign.
func tangleHalves(e, d, w complex128) complex128 {
	o := conj(w) * d
	return complex(real(e)-imag(o), imag(e)+real(o))
}
