package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"channeldns/internal/telemetry"
)

// naiveDFT is the O(N^2) reference transform.
func naiveDFT(src []complex128, sign int) []complex128 {
	n := len(src)
	dst := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			theta := 2 * math.Pi * float64(j) * float64(k) / float64(n)
			if sign > 0 {
				theta = -theta
			}
			sum += src[j] * cmplx.Exp(complex(0, theta))
		}
		dst[k] = sum
	}
	return dst
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErrC(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24, 27, 30, 32, 36, 48, 60, 64, 96, 100, 120, 128} {
		p := NewPlan(n)
		x := randComplex(rng, n)
		got := make([]complex128, n)
		p.Forward(got, x)
		want := naiveDFT(x, +1)
		if e := maxErrC(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: forward max error %g", n, e)
		}
		p.Inverse(got, x)
		want = naiveDFT(x, -1)
		if e := maxErrC(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: inverse max error %g", n, e)
		}
	}
}

func TestBluesteinSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{7, 11, 13, 14, 17, 21, 22, 23, 49, 97, 101} {
		p := NewPlan(n)
		if p.blue == nil {
			t.Fatalf("n=%d should use Bluestein", n)
		}
		x := randComplex(rng, n)
		got := make([]complex128, n)
		p.Forward(got, x)
		want := naiveDFT(x, +1)
		if e := maxErrC(got, want); e > 1e-8*float64(n) {
			t.Errorf("bluestein n=%d: forward max error %g", n, e)
		}
		p.Inverse(got, x)
		want = naiveDFT(x, -1)
		if e := maxErrC(got, want); e > 1e-8*float64(n) {
			t.Errorf("bluestein n=%d: inverse max error %g", n, e)
		}
	}
}

func TestRoundTripScalesByN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 6, 18, 32, 45, 7, 31} {
		p := NewPlan(n)
		x := randComplex(rng, n)
		y := make([]complex128, n)
		p.Forward(y, x)
		z := make([]complex128, n)
		p.Inverse(z, y)
		for i := range z {
			if d := cmplx.Abs(z[i] - complex(float64(n), 0)*x[i]); d > 1e-8*float64(n) {
				t.Fatalf("n=%d roundtrip mismatch at %d: %g", n, i, d)
			}
		}
	}
}

func TestInPlaceTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 48
	p := NewPlan(n)
	x := randComplex(rng, n)
	want := make([]complex128, n)
	p.Forward(want, x)
	p.Forward(x, x) // in place
	if e := maxErrC(x, want); e > 1e-10*float64(n) {
		t.Errorf("in-place forward differs: %g", e)
	}
}

func TestLinearityProperty(t *testing.T) {
	p := NewPlan(24)
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randComplex(r, 24)
		y := randComplex(r, 24)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		lhsIn := make([]complex128, 24)
		for i := range lhsIn {
			lhsIn[i] = a*x[i] + y[i]
		}
		lhs := make([]complex128, 24)
		p.Forward(lhs, lhsIn)
		fx := make([]complex128, 24)
		fy := make([]complex128, 24)
		p.Forward(fx, x)
		p.Forward(fy, y)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(a*fx[i]+fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		p := NewPlan(n)
		x := randComplex(r, n)
		y := make([]complex128, n)
		p.Forward(y, x)
		var sx, sy float64
		for i := range x {
			sx += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			sy += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		}
		return math.Abs(sy-float64(n)*sx) <= 1e-7*(1+sy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRealForwardMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{2, 4, 6, 8, 12, 16, 24, 48, 64, 96, 5, 9, 7, 15} {
		rp := NewRealPlan(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]complex128, rp.NumModes())
		rp.Forward(got, x)
		cx := make([]complex128, n)
		for i := range x {
			cx[i] = complex(x[i], 0)
		}
		want := naiveDFT(cx, +1)
		for k := 0; k < rp.NumModes(); k++ {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Errorf("n=%d k=%d: real forward %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestRealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 8, 10, 12, 36, 48, 3, 9, 27} {
		rp := NewRealPlan(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := make([]complex128, rp.NumModes())
		rp.Forward(spec, x)
		back := make([]float64, n)
		rp.Inverse(back, spec)
		for i := range x {
			if math.Abs(back[i]-float64(n)*x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d real roundtrip mismatch at %d: got %g want %g", n, i, back[i], float64(n)*x[i])
			}
		}
	}
}

func TestRealHermitianSpectrum(t *testing.T) {
	// The half-complex storage must equal the first half of the full DFT;
	// DC and Nyquist must be (numerically) real.
	rng := rand.New(rand.NewSource(8))
	n := 32
	rp := NewRealPlan(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec := make([]complex128, rp.NumModes())
	rp.Forward(spec, x)
	if math.Abs(imag(spec[0])) > 1e-10 || math.Abs(imag(spec[n/2])) > 1e-10 {
		t.Errorf("DC/Nyquist not real: %v %v", spec[0], spec[n/2])
	}
}

func TestPadTruncateComplexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, m := 16, 24
	pc := NewPaddedComplex(n, m)
	spec := randComplex(rng, n)
	spec[n/2] = 0 // Nyquist not carried
	phys := make([]complex128, m)
	pc.InversePaddedScratch(phys, spec, make([]complex128, pc.ScratchLen()))
	back := make([]complex128, n)
	pc.ForwardTruncatedScratch(back, phys, make([]complex128, pc.ScratchLen()))
	if e := maxErrC(back, spec); e > 1e-10 {
		t.Errorf("padded complex roundtrip error %g", e)
	}
}

func TestPadTruncateRealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	nk, m := 8, 24 // Nx = 16 modes one-sided -> 8 kept (Nyquist dropped), grid 24
	pr := NewPaddedReal(nk, m)
	spec := randComplex(rng, nk)
	spec[0] = complex(real(spec[0]), 0) // DC of a real field is real
	phys := make([]float64, m)
	pr.InversePaddedScratch(phys, spec, make([]complex128, pr.ScratchLen()))
	back := make([]complex128, nk)
	pr.ForwardTruncatedScratch(back, phys, make([]complex128, pr.ScratchLen()))
	if e := maxErrC(back, spec); e > 1e-10 {
		t.Errorf("padded real roundtrip error %g", e)
	}
}

func TestPaddedProductDealiases(t *testing.T) {
	// Multiplying two single modes k1 and k2 on the 3/2 grid must produce
	// exactly the k1+k2 mode with no aliasing into resolved modes.
	n := 16 // logical complex spectrum length
	m := 24 // 3/2 grid
	k1, k2 := 5, 6
	pc := NewPaddedComplex(n, m)
	a := make([]complex128, n)
	b := make([]complex128, n)
	a[k1] = 1
	b[k2] = 1
	pa := make([]complex128, m)
	pb := make([]complex128, m)
	pc.InversePaddedScratch(pa, a, make([]complex128, pc.ScratchLen()))
	pc.InversePaddedScratch(pb, b, make([]complex128, pc.ScratchLen()))
	prod := make([]complex128, m)
	for i := range prod {
		prod[i] = pa[i] * pb[i]
	}
	out := make([]complex128, n)
	pc.ForwardTruncatedScratch(out, prod, make([]complex128, pc.ScratchLen()))
	// k1+k2 = 11 > n/2-1 = 7, so the product is entirely unresolved: with
	// proper dealiasing every resolved coefficient must vanish.
	for k := range out {
		if cmplx.Abs(out[k]) > 1e-12 {
			t.Errorf("aliased energy at k=%d: %v", k, out[k])
		}
	}
	// And a resolved product must land exactly on k1+k2.
	b2 := make([]complex128, n)
	b2[2] = 1
	pc.InversePaddedScratch(pb, b2, make([]complex128, pc.ScratchLen()))
	for i := range prod {
		prod[i] = pa[i] * pb[i]
	}
	pc.ForwardTruncatedScratch(out, prod, make([]complex128, pc.ScratchLen()))
	for k := range out {
		want := complex128(0)
		if k == k1+2 {
			want = 1
		}
		if cmplx.Abs(out[k]-want) > 1e-12 {
			t.Errorf("product mode k=%d: got %v want %v", k, out[k], want)
		}
	}
}

func TestScale(t *testing.T) {
	x := []complex128{1, 2i, 3 + 4i}
	Scale(x, 0.5)
	want := []complex128{0.5, 1i, 1.5 + 2i}
	for i := range x {
		if x[i] != want[i] {
			t.Errorf("Scale[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func BenchmarkForward1024(b *testing.B) {
	p := NewPlan(1024)
	x := randComplex(rand.New(rand.NewSource(1)), 1024)
	y := make([]complex128, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(y, x)
	}
}

func BenchmarkRealForward1536(b *testing.B) {
	p := NewRealPlan(1536)
	x := make([]float64, 1536)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]complex128, p.NumModes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(y, x)
	}
}

// BenchmarkLines times the per-line entry points the solver's line loops
// call, at the line lengths of the benchmark workloads (16/24/32/48-mode
// grids padded by 3/2 to 24/36/48/72 points), over a batch of 512 lines a
// pass so the operands stream as they do in a pencil. ns/line is the figure
// to set against benchmark/'s fft.* rows, which time one cache-hot line.
func BenchmarkLines(b *testing.B) {
	const lines = 512
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{24, 36, 48, 72} {
		n, nk := 2*m/3, m/3
		plan, padZ, padX := NewPlan(m), NewPaddedComplex(n, m), NewPaddedReal(nk, m)
		cphys, cout := randComplex(rng, m*lines), make([]complex128, m*lines)
		zspec, xspec := randComplex(rng, n*lines), randComplex(rng, nk*lines)
		xphys := make([]float64, m*lines)
		for i := range xphys {
			xphys[i] = rng.NormFloat64()
		}
		zscr, xscr := make([]complex128, padZ.ScratchLen()), make([]complex128, padX.ScratchLen())
		for _, bc := range []struct {
			name string
			line func(l int)
		}{
			{"forward", func(l int) { plan.Forward(cout[l*m:(l+1)*m], cphys[l*m:(l+1)*m]) }},
			{"padded-complex-inv", func(l int) { padZ.InversePaddedScratch(cout[l*m:(l+1)*m], zspec[l*n:(l+1)*n], zscr) }},
			{"padded-complex-fwd", func(l int) { padZ.ForwardTruncatedScratch(zspec[l*n:(l+1)*n], cphys[l*m:(l+1)*m], zscr) }},
			{"padded-real-inv", func(l int) { padX.InversePaddedScratch(xphys[l*m:(l+1)*m], xspec[l*nk:(l+1)*nk], xscr) }},
			{"padded-real-fwd", func(l int) { padX.ForwardTruncatedScratch(xspec[l*nk:(l+1)*nk], xphys[l*m:(l+1)*m], xscr) }},
		} {
			b.Run(fmt.Sprintf("%s/%d", bc.name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for l := 0; l < lines; l++ {
						bc.line(l)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
			})
		}
	}
}

// BenchmarkBatch sets the batched entries against the per-line ones at the
// channel-48 shapes: 48 z modes and 24 one-sided x modes, both on 72-point
// grids, over the 24*49 z lines and 72*49 x lines of one field at 1x1. The
// per-line rows run the *Scratch entries over contiguous lines; the batched
// rows run the *Batch entries over the same lines laid out as the excursion
// finds them in the pencils (z modes NY = 49 apart with adjacent lines
// adjacent; x modes 49*72 apart, likewise) with the physical side contiguous
// lines in z and point-interleaved in x. ns/line is the figure to compare.
func BenchmarkBatch(b *testing.B) {
	const ny, nkx, nz, m = 49, 24, 48, 72
	rng := rand.New(rand.NewSource(1))
	padZ, padX := NewPaddedComplex(nz, m), NewPaddedReal(nkx, m)
	zLines, xLines := nkx*ny, m*ny
	zspec, zphys := randComplex(rng, nz*zLines), randComplex(rng, m*zLines)
	xspec, xphys := randComplex(rng, nkx*xLines), make([]float64, m*xLines)
	for i := range xphys {
		xphys[i] = rng.NormFloat64()
	}
	zscr, xscr := make([]complex128, padZ.BatchScratchLen()), make([]complex128, padX.BatchScratchLen())
	nbz, nbx := padZ.Batch(), padX.Batch()
	// zRun and xRun visit the runs of the 1x1 pencils: z lines in runs of
	// nbz inside one kx (ny lines), x lines in runs of nbx.
	zRun := func(f func(l, nb int)) {
		for kx := 0; kx < nkx; kx++ {
			for y := 0; y < ny; y += nbz {
				f(kx*ny+y, min(nbz, ny-y))
			}
		}
	}
	xRun := func(f func(l, nb int)) {
		for l := 0; l < xLines; l += nbx {
			f(l, min(nbx, xLines-l))
		}
	}
	zs, xs := Layout{Elem: ny, Line: 1}, Layout{Elem: ny * m, Line: 1}
	zp := Layout{Elem: 1, Line: m}
	for _, bc := range []struct {
		name  string
		lines int
		pass  func()
	}{
		{"per-line/complex-inv", zLines, func() {
			for l := 0; l < zLines; l++ {
				padZ.InversePaddedScratch(zphys[l*m:(l+1)*m], zspec[l*nz:(l+1)*nz], zscr)
			}
		}},
		{"batched/complex-inv", zLines, func() {
			zRun(func(l, nb int) {
				kx, y := l/ny, l%ny
				padZ.InversePaddedBatch(zphys[l*m:], zp, zspec[kx*nz*ny+y:], zs, nb, zscr)
			})
		}},
		{"per-line/complex-fwd", zLines, func() {
			for l := 0; l < zLines; l++ {
				padZ.ForwardTruncatedScratch(zspec[l*nz:(l+1)*nz], zphys[l*m:(l+1)*m], zscr)
			}
		}},
		{"batched/complex-fwd", zLines, func() {
			zRun(func(l, nb int) {
				kx, y := l/ny, l%ny
				padZ.ForwardTruncatedBatch(zspec[kx*nz*ny+y:], zs, zphys[l*m:], zp, nb, zscr)
			})
		}},
		{"per-line/real-inv", xLines, func() {
			for l := 0; l < xLines; l++ {
				padX.InversePaddedScratch(xphys[l*m:(l+1)*m], xspec[l*nkx:(l+1)*nkx], xscr)
			}
		}},
		{"batched/real-inv", xLines, func() {
			xRun(func(l, nb int) {
				padX.InversePaddedBatch(xphys[l*m:], Layout{Elem: nb, Line: 1}, xspec[l:], xs, nb, xscr)
			})
		}},
		{"per-line/real-fwd", xLines, func() {
			for l := 0; l < xLines; l++ {
				padX.ForwardTruncatedScratch(xspec[l*nkx:(l+1)*nkx], xphys[l*m:(l+1)*m], xscr)
			}
		}},
		{"batched/real-fwd", xLines, func() {
			xRun(func(l, nb int) {
				padX.ForwardTruncatedBatch(xspec[l:], xs, xphys[l*m:], Layout{Elem: nb, Line: 1}, nb, xscr)
			})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.lines), "ns/line")
		})
	}
}

// TestPaddedComplexOddLength: for odd n every slot of the wrap-ordered
// spectrum is a resolved mode — index n/2 is +n/2, not a Nyquist slot — so
// padding must carry it and truncation must write it.
func TestPaddedComplexOddLength(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, nm := range [][2]int{{5, 5}, {5, 8}, {9, 16}, {15, 24}, {7, 12}, {3, 9}} {
		n, m := nm[0], nm[1]
		spec := randComplex(rng, n)
		padded := make([]complex128, m)
		PadComplex(padded, spec, 1, n, m)
		back := randComplex(rng, n) // stale contents must all be overwritten
		TruncateComplex(back, 1, padded, n, m, 1)
		for k := range spec {
			if back[k] != spec[k] {
				t.Errorf("n=%d m=%d: pad/truncate lost mode slot %d: %v != %v", n, m, k, back[k], spec[k])
			}
		}
		pc := NewPaddedComplex(n, m)
		phys := make([]complex128, m)
		pc.InversePaddedScratch(phys, spec, make([]complex128, pc.ScratchLen()))
		if e := maxErrC(phys, naiveDFT(padded, -1)); e > 1e-10 {
			t.Errorf("n=%d m=%d: padded inverse differs from the DFT of the padded spectrum by %g", n, m, e)
		}
		back = randComplex(rng, n)
		pc.ForwardTruncatedScratch(back, phys, make([]complex128, pc.ScratchLen()))
		if e := maxErrC(back, spec); e > 1e-12 {
			t.Errorf("n=%d m=%d: odd-length round trip error %g", n, m, e)
		}
	}
}

// TestTransformsDoNotAllocate pins the doc comments' promise: no transform
// entry point allocates per call — not the aliased dst == src call (pooled
// copy) and not a Bluestein length (pooled convolution arrays) either.
func TestTransformsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	check := func(name string, f func()) {
		t.Helper()
		if a := testing.AllocsPerRun(50, f); a != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, a)
		}
	}
	for _, m := range []int{24, 36, 48, 72, 14, 49} { // the last two are Bluestein lengths
		p := NewPlan(m)
		src, dst := randComplex(rng, m), make([]complex128, m)
		check(fmt.Sprintf("Forward/%d", m), func() { p.Forward(dst, src) })
		check(fmt.Sprintf("Inverse in place/%d", m), func() { p.Inverse(dst, dst) })
	}
	for _, m := range []int{24, 36, 48, 72} {
		n, nk := 2*m/3, m/3
		pz, px := NewPaddedComplex(n, m), NewPaddedReal(nk, m)
		zspec, zphys, zscr := randComplex(rng, n), make([]complex128, m), make([]complex128, pz.ScratchLen())
		xspec, xphys, xscr := randComplex(rng, nk), make([]float64, m), make([]complex128, px.ScratchLen())
		check(fmt.Sprintf("PaddedComplex.InversePaddedScratch/%d", m), func() { pz.InversePaddedScratch(zphys, zspec, zscr) })
		check(fmt.Sprintf("PaddedComplex.ForwardTruncatedScratch/%d", m), func() { pz.ForwardTruncatedScratch(zspec, zphys, zscr) })
		check(fmt.Sprintf("PaddedReal.InversePaddedScratch/%d", m), func() { px.InversePaddedScratch(xphys, xspec, xscr) })
		check(fmt.Sprintf("PaddedReal.ForwardTruncatedScratch/%d", m), func() { px.ForwardTruncatedScratch(xspec, xphys, xscr) })
		rp := NewRealPlan(m)
		rspec, rscr := make([]complex128, rp.NumModes()), make([]complex128, rp.ScratchLen())
		check(fmt.Sprintf("RealPlan.ForwardScratch/%d", m), func() { rp.ForwardScratch(rspec, xphys, rscr) })
		check(fmt.Sprintf("RealPlan.InverseScratch/%d", m), func() { rp.InverseScratch(xphys, rspec, rscr) })
	}
}

// TestPaddedRealOddGrid covers the grids the half-length trick cannot serve:
// an odd m pads and truncates a full half-complex image in scratch.
func TestPaddedRealOddGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, c := range [][2]int{{3, 9}, {4, 15}, {2, 7}} {
		nk, m := c[0], c[1]
		pr := NewPaddedReal(nk, m)
		spec := randComplex(rng, nk)
		spec[0] = complex(real(spec[0]), 0)
		phys := make([]float64, m)
		pr.InversePaddedScratch(phys, spec, make([]complex128, pr.ScratchLen()))
		back := make([]complex128, nk)
		pr.ForwardTruncatedScratch(back, phys, make([]complex128, pr.ScratchLen()))
		if e := maxErrC(back, spec); e > 1e-10 {
			t.Errorf("nk=%d m=%d: padded real round trip error %g", nk, m, e)
		}
	}
}

// laidOut returns a buffer holding lines by l, with fill everywhere else.
func laidOut[T float64 | complex128](lines [][]T, l Layout, fill T) []T {
	buf := make([]T, l.span(len(lines[0]), len(lines))+l.Line)
	for i := range buf {
		buf[i] = fill
	}
	for b, line := range lines {
		for k, v := range line {
			buf[k*l.Elem+b*l.Line] = v
		}
	}
	return buf
}

// firstBitDiff returns the first index at which a and b differ in their
// bits, so that -0 and +0 differ, or -1.
func firstBitDiff[T float64 | complex128](a, b []T) int {
	bits := func(v T) [2]uint64 {
		switch v := any(v).(type) {
		case float64:
			return [2]uint64{math.Float64bits(v)}
		case complex128:
			return [2]uint64{math.Float64bits(real(v)), math.Float64bits(imag(v))}
		}
		return [2]uint64{}
	}
	for i := range a {
		if bits(a[i]) != bits(b[i]) {
			return i
		}
	}
	return -1
}

// zeroLines returns nb lines of n zeros.
func zeroLines[T float64 | complex128](nb, n int) [][]T {
	lines := make([][]T, nb)
	for b := range lines {
		lines[b] = make([]T, n)
	}
	return lines
}

// testLines returns nb random lines of n elements with zeros of both signs
// mixed in (negz is the negative zero): line 1 is all negz, and every line
// holds a negz and a +0.
func testLines[T float64 | complex128](nb, n int, negz T, draw func() T) [][]T {
	lines := make([][]T, nb)
	for b := range lines {
		lines[b] = make([]T, n)
		for k := range lines[b] {
			switch {
			case b == 1 || k == (b+1)%n:
				lines[b][k] = negz
			case k == (b+2)%n:
				lines[b][k] = 0
			default:
				lines[b][k] = draw()
			}
		}
	}
	return lines
}

// TestBatchedEntriesMatchPerLine: each *Batch entry gives, bit for bit (-0
// included), what its per-line *Scratch form gives line by line; stores
// nothing outside its lines; and allocates nothing. The widths are 1, 2 and
// one below, at and one above the entry's Batch(); the spectral side is laid
// out as contiguous lines and at the excursion's folded strides (49 = NY
// apart, and nyLoc*mz apart with adjacent lines adjacent), the physical side
// as contiguous lines and point-interleaved. The lengths reach every branch:
// the padded load table or not, the truncating last radix-3 stage or not,
// Bluestein, the half-length real plan with and without a radix-2 innermost
// stage, a Bluestein half-length plan, and odd real grids.
func TestBatchedEntriesMatchPerLine(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const sentinel = -7.5
	negz := math.Copysign(0, -1)
	cnegz := complex(negz, negz)
	cdraw := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
	rdraw := func() float64 { return rng.NormFloat64() }
	widths := func(nb int) []int {
		ws := []int{1}
		for _, w := range []int{2, nb - 1, nb, nb + 1} {
			if w > ws[len(ws)-1] {
				ws = append(ws, w)
			}
		}
		return ws
	}
	check := func(name string, diff int) {
		t.Helper()
		if diff >= 0 {
			t.Errorf("%s: slot %d differs from the per-line bits", name, diff)
		}
	}
	// noAllocs holds f to no allocations; a Bluestein plan borrows its work
	// arrays from a sync.Pool, which the race detector drops at random.
	noAllocs := func(name string, pooled bool, f func()) {
		t.Helper()
		if pooled && telemetry.RaceEnabled {
			return
		}
		if a := testing.AllocsPerRun(3, f); a != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, a)
		}
	}
	var load, noLoad, keepLast, noKeepLast, blue bool
	for _, nm := range [][2]int{{48, 72}, {16, 24}, {7, 12}, {10, 16}, {6, 9}, {10, 15}, {14, 21}} {
		n, m := nm[0], nm[1]
		p := NewPaddedComplex(n, m)
		load, noLoad = load || p.load != nil, noLoad || p.load == nil
		keepLast, noKeepLast = keepLast || p.keepLast, noKeepLast || !p.keepLast
		blue = blue || p.plan.blue != nil
		scr, lineScr := make([]complex128, p.BatchScratchLen()), make([]complex128, p.ScratchLen())
		for _, nb := range widths(p.Batch()) {
			specs, physs := testLines(nb, n, cnegz, cdraw), testLines(nb, m, cnegz, cdraw)
			wantPhys, wantSpec := make([][]complex128, nb), make([][]complex128, nb)
			for b := range specs {
				wantPhys[b], wantSpec[b] = make([]complex128, m), make([]complex128, n)
				p.InversePaddedScratch(wantPhys[b], specs[b], lineScr)
				p.ForwardTruncatedScratch(wantSpec[b], physs[b], lineScr)
			}
			for _, sl := range []Layout{{1, n}, {49, 1}, {3 * m, 1}} {
				if !sl.disjoint(len(specs[0]), nb) {
					continue // more lines than the pencil stride leaves room for
				}
				for _, pl := range []Layout{{1, m}, {nb, 1}} {
					name := fmt.Sprintf("PaddedComplex(%d, %d) nb %d spec %v phys %v", n, m, nb, sl, pl)
					in, got := laidOut(specs, sl, sentinel), laidOut(zeroLines[complex128](nb, m), pl, sentinel)
					p.InversePaddedBatch(got, pl, in, sl, nb, scr)
					check(name+" InversePaddedBatch", firstBitDiff(got, laidOut(wantPhys, pl, sentinel)))
					ph, out := laidOut(physs, pl, sentinel), laidOut(zeroLines[complex128](nb, n), sl, sentinel)
					p.ForwardTruncatedBatch(out, sl, ph, pl, nb, scr)
					check(name+" ForwardTruncatedBatch", firstBitDiff(out, laidOut(wantSpec, sl, sentinel)))
					pooled := p.plan.blue != nil
					noAllocs(name+" InversePaddedBatch", pooled, func() { p.InversePaddedBatch(got, pl, in, sl, nb, scr) })
					noAllocs(name+" ForwardTruncatedBatch", pooled, func() { p.ForwardTruncatedBatch(out, sl, ph, pl, nb, scr) })
				}
			}
		}
	}
	var batched, noRadix2, halfBlue, odd bool
	for _, c := range [][2]int{{24, 72}, {16, 48}, {4, 12}, {6, 18}, {1, 2}, {7, 14}, {3, 9}, {5, 15}, {7, 21}} {
		nk, m := c[0], c[1]
		p := NewPaddedReal(nk, m)
		switch h := p.plan.half; {
		case h == nil:
			odd = true
		case h.blue != nil:
			halfBlue = true
		case p.batched():
			batched = true
		default:
			noRadix2 = true
		}
		scr, lineScr := make([]complex128, p.BatchScratchLen()), make([]complex128, p.ScratchLen())
		for _, nb := range widths(p.Batch()) {
			specs, physs := testLines(nb, nk, cnegz, cdraw), testLines(nb, m, negz, rdraw)
			wantPhys, wantSpec := make([][]float64, nb), make([][]complex128, nb)
			for b := range specs {
				wantPhys[b], wantSpec[b] = make([]float64, m), make([]complex128, nk)
				p.InversePaddedScratch(wantPhys[b], specs[b], lineScr)
				p.ForwardTruncatedScratch(wantSpec[b], physs[b], lineScr)
			}
			for _, sl := range []Layout{{1, nk}, {49, 1}, {3 * m, 1}} {
				if !sl.disjoint(len(specs[0]), nb) {
					continue // more lines than the pencil stride leaves room for
				}
				for _, pl := range []Layout{{1, m}, {nb, 1}} {
					name := fmt.Sprintf("PaddedReal(%d, %d) nb %d spec %v phys %v", nk, m, nb, sl, pl)
					in, got := laidOut(specs, sl, sentinel), laidOut(zeroLines[float64](nb, m), pl, sentinel)
					p.InversePaddedBatch(got, pl, in, sl, nb, scr)
					check(name+" InversePaddedBatch", firstBitDiff(got, laidOut(wantPhys, pl, sentinel)))
					ph, out := laidOut(physs, pl, sentinel), laidOut(zeroLines[complex128](nb, nk), sl, sentinel)
					p.ForwardTruncatedBatch(out, sl, ph, pl, nb, scr)
					check(name+" ForwardTruncatedBatch", firstBitDiff(out, laidOut(wantSpec, sl, sentinel)))
					pooled := p.plan.full != nil && p.plan.full.blue != nil || p.plan.half != nil && p.plan.half.blue != nil
					noAllocs(name+" InversePaddedBatch", pooled, func() { p.InversePaddedBatch(got, pl, in, sl, nb, scr) })
					noAllocs(name+" ForwardTruncatedBatch", pooled, func() { p.ForwardTruncatedBatch(out, sl, ph, pl, nb, scr) })
				}
			}
		}
	}
	if !load || !noLoad || !keepLast || !noKeepLast || !blue || !batched || !noRadix2 || !halfBlue || !odd {
		t.Errorf("branches reached: load %v, no load %v, keepLast %v, no keepLast %v, Bluestein %v, "+
			"real batched %v, half-length plan without radix 2 %v, Bluestein half %v, odd %v",
			load, noLoad, keepLast, noKeepLast, blue, batched, noRadix2, halfBlue, odd)
	}
}
