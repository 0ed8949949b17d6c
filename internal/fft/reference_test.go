package fft

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// This file freezes the package's previous kernel — the depth-first
// recursive Cooley-Tukey transform, the half-length real pack/unpack with
// its general complex multiplies, and the pad/truncate wrappers that copied
// through scratch — as the reference the table-driven engine is compared
// against. The ref* functions are verbatim copies; do not tune them.
//
// The complex engine must reproduce the reference bit for bit
// (math.Float64bits): it runs the same butterflies on the same operands in
// the same order, and leaves out only the reference's multiplies by the unit
// twiddle (1,0) — in the innermost stage and in the first row and column of
// the radix-5 matrix — which return their operand unchanged unless it holds
// a negative zero. The real and padded wrappers are compared with ==: they
// replace multiplies by (0.5,0), (0,-0.5), (0,1) and (s,0) with their scalar
// forms and drop butterflies whose inputs are known zeros, which is exact in
// value but may differ in the sign of an exact zero (a*0.5 - b*0 is +0 where
// a*0.5 is -0 and b is negative).

type refPlan struct {
	n        int
	factors  []int
	twF, twI []complex128
}

func newRefPlan(n int) *refPlan {
	p := &refPlan{n: n}
	m := n
	for _, r := range []int{5, 3, 2} {
		for m%r == 0 {
			p.factors = append(p.factors, r)
			m /= r
		}
	}
	if m != 1 {
		panic("reference kernel: length is not 2-3-5 smooth")
	}
	p.twF = make([]complex128, n)
	p.twI = make([]complex128, n)
	for j := 0; j < n; j++ {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		p.twF[j] = complex(c, s)
		p.twI[j] = complex(c, -s)
	}
	return p
}

func (p *refPlan) Forward(dst, src []complex128) { p.transform(dst, src, +1) }
func (p *refPlan) Inverse(dst, src []complex128) { p.transform(dst, src, -1) }

func (p *refPlan) transform(dst, src []complex128, sign int) {
	tw := p.twF
	if sign < 0 {
		tw = p.twI
	}
	if &dst[0] == &src[0] {
		tmp := make([]complex128, p.n)
		copy(tmp, src[:p.n])
		src = tmp
	}
	p.rec(dst, src, p.n, 1, 0, tw)
}

func (p *refPlan) rec(dst, src []complex128, n, stride, level int, tw []complex128) {
	if n == 1 {
		dst[0] = src[0]
		return
	}
	r := p.factors[level]
	m := n / r
	for q := 0; q < r; q++ {
		p.rec(dst[q*m:], src[q*stride:], m, stride*r, level+1, tw)
	}
	step := p.n / n
	switch r {
	case 2:
		for k := 0; k < m; k++ {
			a := dst[k]
			b := tw[k*step] * dst[m+k]
			dst[k] = a + b
			dst[m+k] = a - b
		}
	case 3:
		w1 := tw[p.n/3]
		w2 := tw[2*p.n/3]
		for k := 0; k < m; k++ {
			a := dst[k]
			b := tw[k*step] * dst[m+k]
			c := tw[(2*k*step)%p.n] * dst[2*m+k]
			dst[k] = a + b + c
			dst[m+k] = a + w1*b + w2*c
			dst[2*m+k] = a + w2*b + w1*c
		}
	default:
		var z [5]complex128
		for k := 0; k < m; k++ {
			for q := 0; q < r; q++ {
				z[q] = tw[(q*k*step)%p.n] * dst[q*m+k]
			}
			for s := 0; s < r; s++ {
				sum := z[0]
				for q := 1; q < r; q++ {
					sum += z[q] * tw[(q*s*(p.n/r))%p.n]
				}
				dst[s*m+k] = sum
			}
		}
	}
}

// refRealPlan is the previous even-length RealPlan (half-length packing).
type refRealPlan struct {
	n, nc int
	half  *refPlan
	w     []complex128
}

func newRefRealPlan(n int) *refRealPlan {
	p := &refRealPlan{n: n, nc: n/2 + 1, half: newRefPlan(n / 2)}
	p.w = make([]complex128, n/2+1)
	copy(p.w, newRefPlan(n).twF)
	return p
}

func (p *refRealPlan) ForwardScratch(dst []complex128, src []float64, scratch []complex128) {
	h := p.n / 2
	z, zt := scratch[:h], scratch[h:2*h]
	for j := 0; j < h; j++ {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	p.half.Forward(zt, z)
	for k := 0; k <= h; k++ {
		zk := zt[k%h]
		zr := conj(zt[(h-k)%h])
		e := (zk + zr) * complex(0.5, 0)
		o := (zk - zr) * complex(0, -0.5)
		dst[k] = e + p.w[k]*o
	}
}

func (p *refRealPlan) InverseScratch(dst []float64, src, scratch []complex128) {
	h := p.n / 2
	z, zt := scratch[:h], scratch[h:2*h]
	x0 := complex(real(src[0]), 0)
	xh := complex(real(src[h]), 0)
	for k := 0; k < h; k++ {
		var xk, xrk complex128
		switch k {
		case 0:
			xk, xrk = x0, xh
		default:
			xk, xrk = src[k], conj(src[h-k])
		}
		e := (xk + xrk) * complex(0.5, 0)
		wo := (xk - xrk) * complex(0.5, 0)
		o := conj(p.w[k]) * wo
		z[k] = e + complex(0, 1)*o
	}
	p.half.Inverse(zt, z)
	for j := 0; j < h; j++ {
		dst[2*j] = 2 * real(zt[j])
		dst[2*j+1] = 2 * imag(zt[j])
	}
}

func refPadComplex(dst, src []complex128, n, m int) {
	half := n / 2
	copy(dst[:half], src[:half])
	for i := half; i < m-(n-half)+1; i++ {
		dst[i] = 0
	}
	neg := n - half - 1
	for j := 0; j < neg; j++ {
		dst[m-neg+j] = src[n-neg+j]
	}
}

func refTruncateComplex(dst, src []complex128, n, m int, s float64) {
	cs := complex(s, 0)
	half := n / 2
	for k := 0; k < half; k++ {
		dst[k] = src[k] * cs
	}
	neg := n - half - 1
	if n%2 == 0 {
		dst[half] = 0
	}
	for j := 0; j < neg; j++ {
		dst[n-neg+j] = src[m-neg+j] * cs
	}
}

// refPaddedComplex and refPaddedReal are the previous fused wrappers: pad
// into scratch, transform at the full length, truncate out of scratch.
type refPaddedComplex struct {
	n, m int
	plan *refPlan
}

func (p *refPaddedComplex) InversePaddedScratch(phys, spec, scratch []complex128) {
	refPadComplex(scratch, spec, p.n, p.m)
	p.plan.Inverse(phys, scratch)
}

func (p *refPaddedComplex) ForwardTruncatedScratch(spec, phys, scratch []complex128) {
	p.plan.Forward(scratch, phys)
	refTruncateComplex(spec, scratch, p.n, p.m, 1/float64(p.m))
}

type refPaddedReal struct {
	nk, m int
	plan  *refRealPlan
}

func (p *refPaddedReal) InversePaddedScratch(phys []float64, spec, scratch []complex128) {
	nc := p.m/2 + 1
	half, rest := scratch[:nc], scratch[nc:]
	copy(half[:p.nk], spec[:p.nk])
	for i := p.nk; i < nc; i++ {
		half[i] = 0
	}
	p.plan.InverseScratch(phys, half, rest)
}

func (p *refPaddedReal) ForwardTruncatedScratch(spec []complex128, phys []float64, scratch []complex128) {
	nc := p.m/2 + 1
	half, rest := scratch[:nc], scratch[nc:]
	p.plan.ForwardScratch(half, phys, rest)
	s := complex(1/float64(p.m), 0)
	for k := 0; k < p.nk; k++ {
		spec[k] = half[k] * s
	}
}

// smoothLengths returns every 2-3-5 smooth n <= 256 plus two production
// line lengths.
func smoothLengths() []int {
	var ns []int
	for n := 1; n <= 256; n++ {
		m := n
		for _, r := range []int{2, 3, 5} {
			for m%r == 0 {
				m /= r
			}
		}
		if m == 1 {
			ns = append(ns, n)
		}
	}
	return append(ns, 1024, 1536)
}

// paddedSpectrum returns a random wrap-ordered spectrum of length m whose
// modes outside the 2/3 band are exact zeros, as the 3/2-rule hands them
// to the inverse transform.
func paddedSpectrum(rng *rand.Rand, m int) []complex128 {
	x := randComplex(rng, m)
	for k := m / 3; k <= m-m/3 && k < m; k++ {
		x[k] = 0
	}
	return x
}

func sameBits(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

func sameValuesC(a, b []complex128) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func sameValuesR(a, b []float64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestEngineBitIdenticalToRecursiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range smoothLengths() {
		p, ref := NewPlan(n), newRefPlan(n)
		got, want := make([]complex128, n), make([]complex128, n)
		for _, x := range [][]complex128{randComplex(rng, n), paddedSpectrum(rng, n)} {
			ref.Forward(want, x)
			p.Forward(got, x)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d forward: element %d is %v, reference %v", n, i, got[i], want[i])
			}
			ref.Inverse(want, x)
			p.Inverse(got, x)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d inverse: element %d is %v, reference %v", n, i, got[i], want[i])
			}
			// The aliased call goes through the pooled copy.
			copy(got, x)
			p.Inverse(got, got)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d in-place inverse: element %d is %v, reference %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestRealPlanEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range smoothLengths() {
		if n%2 != 0 {
			continue // odd lengths never used the half-length trick
		}
		p, ref := NewRealPlan(n), newRefRealPlan(n)
		scratch := make([]complex128, p.ScratchLen())
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got, want := make([]complex128, p.NumModes()), make([]complex128, p.NumModes())
		ref.ForwardScratch(want, x, scratch)
		p.ForwardScratch(got, x, scratch)
		if i := sameValuesC(got, want); i >= 0 {
			t.Fatalf("n=%d real forward: mode %d is %v, reference %v", n, i, got[i], want[i])
		}
		spec := randComplex(rng, p.NumModes())
		back, wantBack := make([]float64, n), make([]float64, n)
		ref.InverseScratch(wantBack, spec, scratch)
		p.InverseScratch(back, spec, scratch)
		if i := sameValuesR(back, wantBack); i >= 0 {
			t.Fatalf("n=%d real inverse: point %d is %v, reference %v", n, i, back[i], wantBack[i])
		}
	}
}

func TestPaddedComplexEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, m := range smoothLengths() {
		// The 3/2 rule where m allows it, looser paddings, and none.
		for _, n := range []int{2 * m / 3, m / 2, 2, m} {
			if n < 2 || n > m || n%2 != 0 {
				continue // the reference mishandled odd n; see TestPaddedComplexOddLength
			}
			p := NewPaddedComplex(n, m)
			ref := &refPaddedComplex{n: n, m: m, plan: newRefPlan(m)}
			scratch := make([]complex128, p.ScratchLen())
			spec := randComplex(rng, n)
			spec[n/2] = 0
			got, want := make([]complex128, m), make([]complex128, m)
			ref.InversePaddedScratch(want, spec, scratch)
			p.InversePaddedScratch(got, spec, scratch)
			if i := sameValuesC(got, want); i >= 0 {
				t.Fatalf("n=%d m=%d padded inverse: point %d is %v, reference %v", n, m, i, got[i], want[i])
			}
			phys := randComplex(rng, m)
			gotS, wantS := randComplex(rng, n), make([]complex128, n)
			ref.ForwardTruncatedScratch(wantS, phys, scratch)
			p.ForwardTruncatedScratch(gotS, phys, scratch)
			if i := sameValuesC(gotS, wantS); i >= 0 {
				t.Fatalf("n=%d m=%d truncated forward: mode %d is %v, reference %v", n, m, i, gotS[i], wantS[i])
			}
		}
	}
}

func TestPaddedRealEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, m := range smoothLengths() {
		if m%2 != 0 {
			continue
		}
		// 3/2 rule (nk = m/3), a looser padding, and no padding at all.
		for _, nk := range []int{m / 3, m / 8, m/2 + 1} {
			if nk < 1 {
				continue
			}
			p := NewPaddedReal(nk, m)
			ref := &refPaddedReal{nk: nk, m: m, plan: newRefRealPlan(m)}
			scratch := make([]complex128, p.ScratchLen())
			spec := randComplex(rng, nk)
			got, want := make([]float64, m), make([]float64, m)
			ref.InversePaddedScratch(want, spec, scratch)
			p.InversePaddedScratch(got, spec, scratch)
			if i := sameValuesR(got, want); i >= 0 {
				t.Fatalf("nk=%d m=%d padded real inverse: point %d is %v, reference %v", nk, m, i, got[i], want[i])
			}
			phys := make([]float64, m)
			for i := range phys {
				phys[i] = rng.NormFloat64()
			}
			gotS, wantS := make([]complex128, nk), make([]complex128, nk)
			ref.ForwardTruncatedScratch(wantS, phys, scratch)
			p.ForwardTruncatedScratch(gotS, phys, scratch)
			if i := sameValuesC(gotS, wantS); i >= 0 {
				t.Fatalf("nk=%d m=%d truncated real forward: mode %d is %v, reference %v", nk, m, i, gotS[i], wantS[i])
			}
		}
	}
}

// TestSharedPlansConcurrent drives one Plan, one PaddedReal and one
// PaddedComplex from several goroutines with distinct destination and
// scratch storage — the contract the par.For line loops of core and parfft
// rely on. Run under -race (make race).
func TestSharedPlansConcurrent(t *testing.T) {
	const workers, lines = 4, 50
	plan := NewPlan(48)
	padX := NewPaddedReal(24, 72)
	padZ := NewPaddedComplex(48, 72)
	rng := rand.New(rand.NewSource(21))
	cin, xspec, zspec := randComplex(rng, 48), randComplex(rng, 24), randComplex(rng, 48)
	zspec[24] = 0

	type result struct {
		c, xs, zs, zp []complex128
		xp            []float64
	}
	run := func(r *result) {
		r.c, r.xs, r.zs, r.zp = make([]complex128, 48), make([]complex128, 24), make([]complex128, 48), make([]complex128, 72)
		r.xp = make([]float64, 72)
		xscr, zscr := make([]complex128, padX.ScratchLen()), make([]complex128, padZ.ScratchLen())
		for l := 0; l < lines; l++ {
			plan.Forward(r.c, cin)
			plan.Inverse(r.c, r.c) // the pooled in-place path
			padX.InversePaddedScratch(r.xp, xspec, xscr)
			padX.ForwardTruncatedScratch(r.xs, r.xp, xscr)
			padZ.InversePaddedScratch(r.zp, zspec, zscr)
			padZ.ForwardTruncatedScratch(r.zs, r.zp, zscr)
		}
	}
	var want result
	run(&want)
	got := make([]result, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(r *result) {
			defer wg.Done()
			run(r)
		}(&got[w])
	}
	wg.Wait()
	for w, r := range got {
		if sameBits(r.c, want.c) >= 0 || sameBits(r.xs, want.xs) >= 0 || sameBits(r.zs, want.zs) >= 0 ||
			sameBits(r.zp, want.zp) >= 0 || sameValuesR(r.xp, want.xp) >= 0 {
			t.Errorf("worker %d: results differ from the serial run", w)
		}
	}
}
