package fft

// This file implements the fused 3/2-rule "pad, transform, truncate"
// operations of the paper's steps (b)-(f): spectral data carrying N Fourier
// modes is expanded with zeros onto a quadrature grid of M >= 3N/2 points
// before inverse transforming, and after the forward transform only the
// resolved modes are kept. Performing the pad/truncate inside the transform
// wrapper keeps the data in cache across the two operations, which is the
// optimization the paper attributes to its threaded FFT blocks.

// bands returns how a wrap-ordered spectrum of logical length n is carried:
// pos modes k = 0..pos-1 at the front and neg modes k = -neg..-1 at the back.
// For even n the Nyquist slot n/2 lies between them and is not carried,
// matching the solver convention; for odd n every slot is a resolved mode.
func bands(n int) (pos, neg int) { return (n + 1) / 2, (n - 1) / 2 }

// span is the slice length n elements stride apart occupy.
func span(n, stride int) int { return (n-1)*stride + 1 }

// PadComplex embeds a wrap-ordered complex spectrum of logical length n,
// whose modes lie stride apart in src (src[j*stride]), into a contiguous
// wrap-ordered spectrum of length m >= n, zeroing the new high modes. The
// Nyquist slot of an even-length source (index n/2) is dropped.
func PadComplex(dst, src []complex128, stride, n, m int) {
	if m < n {
		panic("fft: PadComplex target smaller than source")
	}
	if len(dst) < m || stride < 1 || len(src) < span(n, stride) {
		panic("fft: PadComplex slice lengths")
	}
	pos, neg := bands(n)
	for j := 0; j < pos; j++ {
		dst[j] = src[j*stride]
	}
	clear(dst[pos : m-neg])
	for j := n - neg; j < n; j++ {
		dst[m-n+j] = src[j*stride]
	}
}

// TruncateComplex extracts the resolved modes of a contiguous wrap-ordered
// spectrum of length m back into a spectrum of logical length n <= m whose
// modes lie stride apart in dst (dst[k*stride]), scaling by s and zeroing
// the Nyquist slot of an even-length destination.
func TruncateComplex(dst []complex128, stride int, src []complex128, n, m int, s float64) {
	if m < n {
		panic("fft: TruncateComplex source smaller than target")
	}
	if stride < 1 || len(dst) < span(n, stride) || len(src) < m {
		panic("fft: TruncateComplex slice lengths")
	}
	pos, neg := bands(n)
	for k := 0; k < pos; k++ {
		dst[k*stride] = scale(src[k], s)
	}
	if n%2 == 0 {
		dst[pos*stride] = 0 // Nyquist not carried
	}
	for k := n - neg; k < n; k++ {
		dst[k*stride] = scale(src[m-n+k], s)
	}
}

// scale returns c*(s,0) in its scalar form.
func scale(c complex128, s float64) complex128 { return complex(real(c)*s, imag(c)*s) }

// PaddedComplex fuses 3/2-rule padding with complex transforms in one
// direction (the z transforms of the DNS). The spectral side carries n
// wrap-ordered modes (Nyquist zero); the physical side has m points.
//
// Where the m-point plan allows it the pad and the truncation are part of
// the transform rather than passes around it. The inverse loads the
// spectrum straight through a padded digit-reversal table in which the
// zeroed band is a marker, so the innermost radix-2 butterflies with a known
// zero input reduce to copies (w*0 = 0, a+0 = a). The forward stops before
// the outermost radix-3 stage and evaluates only the outputs truncation
// keeps — for m = 3n/2 none of the middle third — scaled as they are stored.
// Both produce the values of pad-then-transform and transform-then-truncate
// exactly; other plans run those two steps through scratch.
//
// The *Batch entries (batch.go) transform a run of adjacent lines where they
// sit inside a pencil; the *Scratch entries transform one contiguous line.
type PaddedComplex struct {
	n, m int
	nb   int // batch width, see Batch
	plan *Plan
	// load[i] is the spectrum index position i of the innermost stage reads,
	// or -1 inside the zeroed band; nil when the innermost radix is not 2.
	load []int32
	// keepLast says the forward may skip the last stage's unkept outputs: the
	// outermost radix is 3 and both carried bands fit inside one third.
	keepLast bool
}

// NewPaddedComplex builds the fused transform for n spectral modes on an
// m-point quadrature grid (typically m = 3n/2).
func NewPaddedComplex(n, m int) *PaddedComplex {
	if m < n {
		panic("fft: padded transform needs m >= n")
	}
	p := &PaddedComplex{n: n, m: m, nb: batchLines(m), plan: NewPlan(m)}
	pos, neg := bands(n)
	if inv := p.plan.stages[inverse]; len(inv) > 0 && inv[0].r == 2 {
		p.load = make([]int32, m)
		for i, j := range p.plan.perm {
			switch {
			case int(j) < pos:
				p.load[i] = j
			case int(j) >= m-neg:
				p.load[i] = j - int32(m-n)
			default:
				p.load[i] = -1
			}
		}
	}
	if fwd := p.plan.stages[forward]; len(fwd) > 0 {
		last := fwd[len(fwd)-1]
		p.keepLast = last.r == 3 && pos <= last.m && neg <= last.m
	}
	return p
}

// SpectralLen returns n, the number of spectral modes carried.
func (p *PaddedComplex) SpectralLen() int { return p.n }

// PhysicalLen returns m, the quadrature grid size.
func (p *PaddedComplex) PhysicalLen() int { return p.m }

// ScratchLen returns the scratch length the Scratch variants require.
func (p *PaddedComplex) ScratchLen() int { return p.m }

// InversePaddedScratch fills phys (length m) with the unnormalized inverse
// transform of the zero-padded spectrum spec (length n). scratch has length
// ScratchLen(); the call is safe for concurrent use with distinct scratch.
func (p *PaddedComplex) InversePaddedScratch(phys, spec, scratch []complex128) {
	if len(phys) < p.m || len(spec) < p.n {
		panic("fft: padded inverse slice lengths")
	}
	p.inversePadded(phys, spec, 1, scratch)
}

// inversePadded is the per-line body of InversePaddedScratch, reading the n
// modes stride apart, spec[j*stride].
func (p *PaddedComplex) inversePadded(phys, spec []complex128, stride int, scratch []complex128) {
	if p.load == nil {
		PadComplex(scratch, spec, stride, p.n, p.m)
		p.plan.Inverse(phys, scratch)
		return
	}
	phys = phys[:p.m]
	first2Padded(phys, spec[:span(p.n, stride)], stride, p.load)
	combine(phys, p.plan.stages[inverse][1:])
}

// first2Padded is first2 reading spec[j*stride] through a padded load table:
// a butterfly with a zero input is a copy (a+0 = a-0 = a; 0+b = b, 0-b = -b).
func first2Padded(dst, spec []complex128, stride int, load []int32) {
	dst = dst[:len(load)]
	for i := 1; i < len(load); i += 2 {
		ja, jb := int(load[i-1]), int(load[i])
		switch {
		case ja >= 0 && jb >= 0:
			a, b := spec[ja*stride], spec[jb*stride]
			dst[i-1] = a + b
			dst[i] = a - b
		case ja >= 0:
			a := spec[ja*stride]
			dst[i-1], dst[i] = a, a
		case jb >= 0:
			b := spec[jb*stride]
			dst[i-1], dst[i] = b, -b
		default:
			dst[i-1], dst[i] = 0, 0
		}
	}
}

// ForwardTruncatedScratch transforms phys (length m) forward and stores the
// n resolved modes into spec, normalized by 1/m so that a round trip is the
// identity on the resolved modes. scratch has length ScratchLen(); the call
// is safe for concurrent use with distinct scratch.
func (p *PaddedComplex) ForwardTruncatedScratch(spec, phys, scratch []complex128) {
	if len(phys) < p.m || len(spec) < p.n || len(scratch) < p.m {
		panic("fft: truncated forward slice lengths")
	}
	p.forwardTruncated(spec, 1, phys, scratch)
}

// forwardTruncated is the per-line body of ForwardTruncatedScratch, storing
// the n modes stride apart, spec[k*stride].
func (p *PaddedComplex) forwardTruncated(spec []complex128, stride int, phys, scratch []complex128) {
	s := 1 / float64(p.m)
	if !p.keepLast {
		p.plan.Forward(scratch, phys)
		TruncateComplex(spec, stride, scratch, p.n, p.m, s)
		return
	}
	scratch = scratch[:p.m]
	rest := p.plan.load(scratch, phys[:p.m], p.plan.stages[forward])
	combine(scratch, rest[:len(rest)-1])
	last3Truncated(spec[:span(p.n, stride)], p.n, stride, scratch, &rest[len(rest)-1], s)
}

// last3Truncated is the outermost radix-3 stage of a truncated forward
// transform. Of its outputs x0[k], x1[k], x2[k] it forms only those the
// length-n spectrum carries — the leading modes from x0, the trailing ones
// from x2, nothing from x1 — and stores them scaled by s at spec[k*stride].
func last3Truncated(spec []complex128, n, stride int, x []complex128, st *stage, s float64) {
	m := st.m
	pos, neg := bands(n)
	w1, w2 := st.w[1], st.w[2]
	t1, t2 := st.tw[:m], st.tw[m:][:m]
	x0, x1, x2 := x[:m], x[m:][:m], x[2*m:][:m]
	shift := n - m // x2[k] lands on mode shift+k
	for k, u := range t1 {
		a := x0[k]
		b := u * x1[k]
		c := t2[k] * x2[k]
		if k < pos {
			spec[k*stride] = scale(a+b+c, s)
		}
		if k >= m-neg {
			spec[(shift+k)*stride] = scale(a+w2*b+w1*c, s)
		}
	}
	if n%2 == 0 {
		spec[pos*stride] = 0 // Nyquist not carried
	}
}

// PaddedReal fuses 3/2-rule padding with real transforms in one direction
// (the x transforms of the DNS). The spectral side carries nk one-sided
// modes k = 0..nk-1 with the Nyquist mode dropped, as in the paper's
// customized kernel; the physical side has m real points. For even m the
// pad and the truncation happen inside the real plan's tangling passes
// (inverseModes reads no mode past nk, forwardModes forms none); odd m pads
// and truncates a full half-complex image in scratch. As for PaddedComplex,
// the *Batch entries transform a run of lines inside a pencil and the
// *Scratch entries one contiguous line.
type PaddedReal struct {
	nk, m int
	nb    int // batch width, see Batch
	plan  *RealPlan
}

// NewPaddedReal builds the fused real transform carrying nk one-sided modes
// on an m-point grid (typically nk = Nx/2 and m = 3Nx/2).
func NewPaddedReal(nk, m int) *PaddedReal {
	if m/2+1 < nk {
		panic("fft: padded real transform needs m/2+1 >= nk")
	}
	return &PaddedReal{nk: nk, m: m, nb: batchLines(m), plan: NewRealPlan(m)}
}

// SpectralLen returns the number of one-sided modes carried.
func (p *PaddedReal) SpectralLen() int { return p.nk }

// PhysicalLen returns the quadrature grid size.
func (p *PaddedReal) PhysicalLen() int { return p.m }

// ScratchLen returns the scratch length the Scratch variants require: the
// half-complex spectrum image plus the underlying real plan's own scratch.
func (p *PaddedReal) ScratchLen() int { return p.m/2 + 1 + p.plan.ScratchLen() }

// InversePaddedScratch fills phys (length m) with the unnormalized inverse
// real transform of the zero-padded one-sided spectrum spec (length nk).
// scratch has length ScratchLen(); the call allocates nothing and is safe
// for concurrent use with distinct scratch.
func (p *PaddedReal) InversePaddedScratch(phys []float64, spec, scratch []complex128) {
	if len(phys) < p.m || len(spec) < p.nk || len(scratch) < p.ScratchLen() {
		panic("fft: padded real inverse slice lengths")
	}
	p.inversePadded(phys, 1, spec, 1, scratch)
}

// inversePadded is the per-line body of InversePaddedScratch, reading the
// nk modes stride apart, spec[k*stride], and writing the m points ps apart,
// phys[j*ps].
func (p *PaddedReal) inversePadded(phys []float64, ps int, spec []complex128, stride int, scratch []complex128) {
	if p.plan.half != nil {
		p.plan.inverseModes(phys, ps, spec, stride, p.nk, scratch)
		return
	}
	nc := p.m/2 + 1
	image, rest := scratch[:nc], scratch[nc:]
	for k := 0; k < p.nk; k++ {
		image[k] = spec[k*stride]
	}
	clear(image[p.nk:])
	p.plan.inverseFull(phys, ps, image, rest)
}

// ForwardTruncatedScratch transforms phys forward and keeps the nk resolved
// one-sided modes, normalized by 1/m. scratch has length ScratchLen(); the
// call allocates nothing and is safe for concurrent use with distinct
// scratch.
func (p *PaddedReal) ForwardTruncatedScratch(spec []complex128, phys []float64, scratch []complex128) {
	if len(phys) < p.m || len(spec) < p.nk || len(scratch) < p.ScratchLen() {
		panic("fft: padded real forward slice lengths")
	}
	p.forwardTruncated(spec, 1, phys, 1, scratch)
}

// forwardTruncated is the per-line body of ForwardTruncatedScratch, reading
// the m points ps apart, phys[j*ps], and storing the nk modes stride apart,
// spec[k*stride].
func (p *PaddedReal) forwardTruncated(spec []complex128, stride int, phys []float64, ps int, scratch []complex128) {
	s := 1 / float64(p.m)
	if p.plan.half != nil {
		p.plan.forwardModes(spec, stride, phys, ps, scratch, p.nk, s)
		return
	}
	nc := p.m/2 + 1
	image, rest := scratch[:nc], scratch[nc:]
	p.plan.forwardFull(image, phys, ps, rest)
	for k := 0; k < p.nk; k++ {
		spec[k*stride] = scale(image[k], s)
	}
}
