// Package fft provides the one-dimensional fast Fourier transforms that the
// channel DNS is built on: complex mixed-radix transforms (radix 2, 3, 5 with
// a Bluestein fallback for other factors), real-to-complex transforms in the
// half-complex storage scheme, and the fused 3/2-rule pad/truncate transforms
// used for dealiasing, each of the latter also as a batched entry that runs
// a block of adjacent lines, wherever they sit in a pencil, through every
// stage together (batch.go).
//
// Sign and normalization conventions follow FFTW: Forward computes
//
//	X[k] = sum_j x[j] * exp(-2*pi*i*j*k/N)
//
// and Inverse computes
//
//	x[j] = sum_k X[k] * exp(+2*pi*i*j*k/N)
//
// Neither is normalized; applying Forward then Inverse multiplies the input
// by N. Callers (the spectral solver) fold the 1/N into the physical-to-
// spectral direction.
package fft

import (
	"fmt"
	"math"
	"sync"
)

// Plan holds the precomputed state for complex transforms of a fixed length.
// It is a compiled, self-describing program for one decimation-in-time
// Cooley-Tukey factorisation (radix 5s, then 3s, then 2s, outermost first):
// a digit-reversal load permutation fused into the innermost, unit-twiddle
// stage, then one pass per remaining stage over contiguous blocks with that
// stage's twiddles laid out contiguously. A Plan is safe for concurrent use
// by multiple goroutines as long as each call uses distinct destination
// storage; no call allocates (an aliased dst == src call and the Bluestein
// fallback borrow work arrays from a pool the plan owns).
type Plan struct {
	n    int
	perm []int32 // perm[i] is the source index loaded into position i
	// stages[forward] and stages[inverse] hold the two programs in
	// execution order: innermost (sub-transform length 1) first.
	stages [2][]stage
	tmp    sync.Pool  // *[]complex128 of length n, for aliased calls
	blue   *bluestein // non-nil when n has factors other than 2, 3, 5
}

// Transform directions, indexing Plan.stages.
const (
	forward = iota
	inverse
)

// stage is one Cooley-Tukey combine pass: it merges r adjacent
// sub-transforms of length m into one of length r*m, for every block of
// r*m points of the line.
type stage struct {
	r, m int
	// tw holds the r-1 twiddle rows of the pass back to back: row q-1 is
	// w_N^(q*k*N/(r*m)) for k in [0,m) — the values the strided
	// tw[(q*k*step) % N] fetch of a recursive formulation reads.
	tw []complex128
	// w[j] = w_r^j in the transform's sign, the radix-r DFT matrix entries
	// (w[0] = 1 is never multiplied by).
	w [5]complex128
}

// NewPlan creates a transform plan for complex sequences of length n.
// n must be positive.
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid transform length %d", n))
	}
	p := &Plan{n: n}
	p.tmp.New = func() any {
		buf := make([]complex128, n)
		return &buf
	}
	factors, blue := factorize(n)
	if blue != nil {
		p.blue = blue
		return p
	}
	p.perm = digitReversal(n, factors)
	twF := twiddles(n, n)
	twI := make([]complex128, n)
	for j, w := range twF {
		twI[j] = conj(w)
	}
	p.stages[forward] = compileStages(n, factors, twF)
	p.stages[inverse] = compileStages(n, factors, twI)
	return p
}

// twiddles returns w_n^j = exp(-2*pi*i*j/n) for j in [0,count).
func twiddles(n, count int) []complex128 {
	tw := make([]complex128, count)
	for j := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		tw[j] = complex(c, s)
	}
	return tw
}

// digitReversal returns the load order of the decimation-in-time
// factorisation: position i, written in the mixed radix of the outermost-
// first factor list (digit q_l weighs n/(r_0...r_l)), loads the source
// element whose digits are the same read with the weights r_0...r_(l-1).
func digitReversal(n int, factors []int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		rem, sub, stride, off := i, n, 1, 0
		for _, r := range factors {
			sub /= r
			off += rem / sub * stride
			rem %= sub
			stride *= r
		}
		perm[i] = int32(off)
	}
	return perm
}

// compileStages lays out each stage's twiddles contiguously from the
// length-n table tw, innermost stage first.
func compileStages(n int, factors []int, tw []complex128) []stage {
	stages := make([]stage, len(factors))
	sub := n // length of the transform the stage produces
	for l, r := range factors {
		st := &stages[len(factors)-1-l]
		st.r, st.m = r, sub/r
		step := n / sub
		st.tw = make([]complex128, (r-1)*st.m)
		for q := 1; q < r; q++ {
			for k := 0; k < st.m; k++ {
				st.tw[(q-1)*st.m+k] = tw[(q*k*step)%n]
			}
		}
		for j := 0; j < r; j++ {
			st.w[j] = tw[j*(n/r)]
		}
		sub = st.m
	}
	return stages
}

// factorize splits n into radix-5/3/2 stages, outermost first. If n contains
// any other prime factor the whole transform is delegated to Bluestein's
// algorithm and the returned factor list is nil.
func factorize(n int) ([]int, *bluestein) {
	m := n
	var f []int
	for _, r := range []int{5, 3, 2} {
		for m%r == 0 {
			f = append(f, r)
			m /= r
		}
	}
	if m != 1 {
		return nil, newBluestein(n)
	}
	return f, nil
}

// Forward computes the unnormalized forward DFT of src into dst.
// dst and src must both have the plan's length and may be the same slice.
func (p *Plan) Forward(dst, src []complex128) { p.transform(dst, src, forward) }

// Inverse computes the unnormalized inverse DFT of src into dst.
// dst and src must both have the plan's length and may be the same slice.
func (p *Plan) Inverse(dst, src []complex128) { p.transform(dst, src, inverse) }

// transform runs the program of direction dir.
func (p *Plan) transform(dst, src []complex128, dir int) {
	if len(dst) < p.n || len(src) < p.n {
		panic("fft: slice shorter than plan length")
	}
	dst, src = dst[:p.n], src[:p.n]
	if p.blue != nil {
		p.blue.transform(dst, src, dir)
		return
	}
	if &dst[0] == &src[0] {
		// The permuted load reads positions the first stage has already
		// overwritten: run it from a pooled copy.
		buf := p.tmp.Get().(*[]complex128)
		copy(*buf, src)
		p.run(dst, *buf, dir)
		p.tmp.Put(buf)
		return
	}
	p.run(dst, src, dir)
}

// run executes the compiled program out of place.
func (p *Plan) run(dst, src []complex128, dir int) {
	combine(dst, p.load(dst, src, p.stages[dir]))
}

// load fills dst with src in digit-reversed order — through the innermost
// stage when that is a radix-2 one — and returns the stages left to run.
func (p *Plan) load(dst, src []complex128, stages []stage) []stage {
	if len(stages) > 0 && stages[0].r == 2 {
		first2(dst, src, p.perm)
		return stages[1:]
	}
	for i, j := range p.perm {
		dst[i] = src[j]
	}
	return stages
}

// first2 is the innermost stage of an even-length plan (radix 2, m == 1)
// fused with the digit-reversal load, so the permutation costs no pass of
// its own. The stage's only twiddle is w^0 = (1,0) and is not multiplied
// by: (1,0)*b equals b, apart from the sign of a zero part when b holds a
// negative zero.
func first2(dst, src []complex128, perm []int32) {
	dst = dst[:len(perm)]
	for i := 1; i < len(perm); i += 2 {
		a, b := src[perm[i-1]], src[perm[i]]
		dst[i-1] = a + b
		dst[i] = a - b
	}
}

// combine runs stages in place on x, which holds the sub-transforms the
// first of them merges.
func combine(x []complex128, stages []stage) {
	for i := range stages {
		st := &stages[i]
		switch st.r {
		case 2:
			radix2(x, st.m, st.tw)
		case 3:
			radix3(x, st.m, st.tw, st.w[1], st.w[2])
		default:
			radix5(x, st.m, st.tw, &st.w)
		}
	}
}

// The radix bodies below re-slice every operand to the stage width m before
// the inner loop, which is what lets the compiler drop the bounds checks.

// radix2 merges pairs of length-m sub-transforms: for each block (a, b) and
// each k, (a[k], b[k]) = (a[k] + w^k*b[k], a[k] - w^k*b[k]).
func radix2(x []complex128, m int, tw []complex128) {
	tw = tw[:m]
	for len(x) >= 2*m {
		a, b := x[:m], x[m:][:m]
		for k, w := range tw {
			u := a[k]
			v := w * b[k]
			a[k] = u + v
			b[k] = u - v
		}
		x = x[2*m:]
	}
}

// radix3 merges triples of length-m sub-transforms. The combination is
// written a + w1*b + w2*c, not the cheaper form that shares b+c and b-c,
// because that is the order of operations every pinned trajectory was
// computed with; the symmetric form rounds differently.
func radix3(x []complex128, m int, tw []complex128, w1, w2 complex128) {
	t1, t2 := tw[:m], tw[m:][:m]
	for len(x) >= 3*m {
		x0, x1, x2 := x[:m], x[m:][:m], x[2*m:][:m]
		for k, u := range t1 {
			a := x0[k]
			b := u * x1[k]
			c := t2[k] * x2[k]
			x0[k] = a + b + c
			x1[k] = a + w1*b + w2*c
			x2[k] = a + w2*b + w1*c
		}
		x = x[3*m:]
	}
}

// radix5 merges quintuples of length-m sub-transforms: output s is
// z0 + sum_q z_q * w[(q*s) mod 5] over the twiddled inputs z_q, accumulated
// in q order as the generic O(r^2) loop it unrolls did.
func radix5(x []complex128, m int, tw []complex128, w *[5]complex128) {
	t1, t2, t3, t4 := tw[:m], tw[m:][:m], tw[2*m:][:m], tw[3*m:][:m]
	w1, w2, w3, w4 := w[1], w[2], w[3], w[4]
	for len(x) >= 5*m {
		x0, x1, x2, x3, x4 := x[:m], x[m:][:m], x[2*m:][:m], x[3*m:][:m], x[4*m:][:m]
		for k, u := range t1 {
			z0 := x0[k]
			z1 := u * x1[k]
			z2 := t2[k] * x2[k]
			z3 := t3[k] * x3[k]
			z4 := t4[k] * x4[k]
			x0[k] = z0 + z1 + z2 + z3 + z4
			x1[k] = z0 + z1*w1 + z2*w2 + z3*w3 + z4*w4
			x2[k] = z0 + z1*w2 + z2*w4 + z3*w1 + z4*w3
			x3[k] = z0 + z1*w3 + z2*w1 + z3*w4 + z4*w2
			x4[k] = z0 + z1*w4 + z2*w3 + z3*w2 + z4*w1
		}
		x = x[5*m:]
	}
}

// Scale multiplies every element of x by s. It is a convenience for applying
// the 1/N normalization after a forward transform.
func Scale(x []complex128, s float64) {
	cs := complex(s, 0)
	for i := range x {
		x[i] *= cs
	}
}
