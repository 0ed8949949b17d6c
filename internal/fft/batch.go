package fft

// This file holds the batched forms of the padded transforms: a block of
// adjacent equal-length lines runs through each stage together, held
// lines-innermost in scratch (point i of line b at i*nb + b), so every
// stage's inner loop runs over the batch with its twiddle in a register
// instead of over a short sub-transform. Each batched body performs exactly
// the per-element operations of its per-line counterpart in the same order,
// so a batched transform gives the per-line bits.
//
// The per-line bodies stay for Plan.Forward/Inverse and the *Scratch
// entries: a batch of one line, whose batch loops make one trip, measured
// 1.4-2.5 times slower per line than they are at m = 36, 48 and 72
// (2-vCPU x86-64), so one body per use.

// Layout places a batch of lines in a slice: element k of line b sits at
// k*Elem + b*Line.
type Layout struct{ Elem, Line int }

// span is the slice length nb lines of n elements occupy.
func (l Layout) span(n, nb int) int { return (n-1)*l.Elem + (nb-1)*l.Line + 1 }

// disjoint reports whether l keeps nb lines of n elements apart: one line
// after another, or lines interleaved point by point.
func (l Layout) disjoint(n, nb int) bool {
	return l.Elem >= 1 && l.Line >= 1 && (l.Line >= n*l.Elem || l.Elem >= nb*l.Line)
}

// ok reports whether s holds nb disjoint lines of n elements laid out by l.
func (l Layout) ok(s []complex128, n, nb int) bool {
	return l.disjoint(n, nb) && len(s) >= l.span(n, nb)
}

// batchBytes is the size of the lines-innermost block a batched entry runs
// through the stages: 14 lines of 72 points, well inside L1 with the
// operands it reads and writes.
const batchBytes = 16 << 10

// batchLines is the batch width for m-point lines: as many as batchBytes
// holds, but at most 16, because a caller keeps its operands a batch wide
// (the excursion's physical x lines: up to a dozen fields a worker), and
// 42-line batches of 24-point lines cost a server running 16-cubed jobs
// 0.8 MB of peak RSS (2-vCPU x86-64).
func batchLines(m int) int { return min(16, max(1, batchBytes/(16*m))) }

// Batch returns how many lines the batched entries run through the stages
// together; a caller gains nothing by passing more at once.
func (p *PaddedComplex) Batch() int { return p.nb }

// BatchScratchLen returns the scratch length the batched entries require.
func (p *PaddedComplex) BatchScratchLen() int { return p.m * max(2, p.nb) }

// InversePaddedBatch is InversePaddedScratch for nb lines: the modes of
// line b lie at spec[k*sl.Elem + b*sl.Line], its m points go to
// phys[j*pl.Elem + b*pl.Line]. scratch has length BatchScratchLen(); the
// call allocates nothing and is safe for concurrent use with distinct
// scratch.
func (p *PaddedComplex) InversePaddedBatch(phys []complex128, pl Layout, spec []complex128, sl Layout, nb int, scratch []complex128) {
	if nb < 1 || !pl.ok(phys, p.m, nb) || !sl.ok(spec, p.n, nb) || len(scratch) < p.BatchScratchLen() {
		panic("fft: padded batch inverse slice lengths")
	}
	for b0 := 0; b0 < nb; b0 += p.nb {
		c := min(p.nb, nb-b0)
		ph, sp := phys[b0*pl.Line:], spec[b0*sl.Line:]
		if p.load == nil {
			line, scr := scratch[:p.m], scratch[p.m:2*p.m]
			for b := 0; b < c; b++ {
				p.inversePadded(line, sp[b*sl.Line:], sl.Elem, scr)
				storeB(ph[b*pl.Line:], pl, line, 1)
			}
			continue
		}
		x := scratch[:c*p.m]
		first2PaddedB(x, c, sp, sl, p.load)
		combineB(x, c, p.plan.stages[inverse][1:])
		storeB(ph, pl, x, c)
	}
}

// ForwardTruncatedBatch is ForwardTruncatedScratch for nb lines: the m
// points of line b lie at phys[j*pl.Elem + b*pl.Line], its n resolved modes
// go to spec[k*sl.Elem + b*sl.Line]. scratch has length BatchScratchLen();
// the call allocates nothing and is safe for concurrent use with distinct
// scratch.
func (p *PaddedComplex) ForwardTruncatedBatch(spec []complex128, sl Layout, phys []complex128, pl Layout, nb int, scratch []complex128) {
	if nb < 1 || !pl.ok(phys, p.m, nb) || !sl.ok(spec, p.n, nb) || len(scratch) < p.BatchScratchLen() {
		panic("fft: truncated batch forward slice lengths")
	}
	s := 1 / float64(p.m)
	for b0 := 0; b0 < nb; b0 += p.nb {
		c := min(p.nb, nb-b0)
		ph, sp := phys[b0*pl.Line:], spec[b0*sl.Line:]
		if !p.keepLast {
			line, scr := scratch[:p.m], scratch[p.m:2*p.m]
			for b := 0; b < c; b++ {
				gather(line, ph[b*pl.Line:], pl.Elem)
				p.forwardTruncated(sp[b*sl.Line:], sl.Elem, line, scr)
			}
			continue
		}
		x := scratch[:c*p.m]
		rest := loadB(x, c, ph, pl, p.plan.perm, p.plan.stages[forward])
		combineB(x, c, rest[:len(rest)-1])
		last3TruncatedB(sp, sl, c, p.n, x, &rest[len(rest)-1], s)
	}
}

// Batch returns how many lines the batched entries run through the stages
// together; a caller gains nothing by passing more at once.
func (p *PaddedReal) Batch() int { return p.nb }

// BatchScratchLen returns the scratch length the batched entries require.
func (p *PaddedReal) BatchScratchLen() int { return max(p.ScratchLen(), p.m*p.nb) }

// batched says the real plan has a fused batched path: an even grid whose
// half-length plan starts with a radix-2 stage (so it is no Bluestein one).
func (p *PaddedReal) batched() bool {
	h := p.plan.half
	return h != nil && len(h.stages[forward]) > 0 && h.stages[forward][0].r == 2
}

// InversePaddedBatch is InversePaddedScratch for nb lines: the nk modes of
// line b lie at spec[k*sl.Elem + b*sl.Line], its m points go to
// phys[j*pl.Elem + b*pl.Line]. scratch has length BatchScratchLen(); the
// call allocates nothing and is safe for concurrent use with distinct
// scratch.
func (p *PaddedReal) InversePaddedBatch(phys []float64, pl Layout, spec []complex128, sl Layout, nb int, scratch []complex128) {
	if nb < 1 || !pl.disjoint(p.m, nb) || len(phys) < pl.span(p.m, nb) || !sl.ok(spec, p.nk, nb) || len(scratch) < p.BatchScratchLen() {
		panic("fft: padded real batch inverse slice lengths")
	}
	h := p.m / 2
	for b0 := 0; b0 < nb; b0 += p.nb {
		c := min(p.nb, nb-b0)
		ph, sp := phys[b0*pl.Line:], spec[b0*sl.Line:]
		if !p.batched() {
			for b := 0; b < c; b++ {
				p.inversePadded(ph[b*pl.Line:], pl.Elem, sp[b*sl.Line:], sl.Elem, scratch)
			}
			continue
		}
		z, zt := scratch[:h*c], scratch[h*c:][:h*c]
		p.plan.tangleB(z, c, sp, sl, p.nk)
		half := p.plan.half
		combineB(zt, c, loadB(zt, c, z, Layout{c, 1}, half.perm, half.stages[inverse]))
		for j := 0; j < h; j++ {
			o0, o1 := 2*j*pl.Elem, (2*j+1)*pl.Elem
			for _, v := range zt[j*c:][:c] {
				ph[o0] = 2 * real(v)
				ph[o1] = 2 * imag(v)
				o0 += pl.Line
				o1 += pl.Line
			}
		}
	}
}

// ForwardTruncatedBatch is ForwardTruncatedScratch for nb lines: the m
// points of line b lie at phys[j*pl.Elem + b*pl.Line], its nk resolved
// modes go to spec[k*sl.Elem + b*sl.Line]. scratch has length
// BatchScratchLen(); the call allocates nothing and is safe for concurrent
// use with distinct scratch.
func (p *PaddedReal) ForwardTruncatedBatch(spec []complex128, sl Layout, phys []float64, pl Layout, nb int, scratch []complex128) {
	if nb < 1 || !pl.disjoint(p.m, nb) || len(phys) < pl.span(p.m, nb) || !sl.ok(spec, p.nk, nb) || len(scratch) < p.BatchScratchLen() {
		panic("fft: truncated real batch forward slice lengths")
	}
	s := 1 / float64(p.m)
	h := p.m / 2
	for b0 := 0; b0 < nb; b0 += p.nb {
		c := min(p.nb, nb-b0)
		ph, sp := phys[b0*pl.Line:], spec[b0*sl.Line:]
		if !p.batched() {
			for b := 0; b < c; b++ {
				p.forwardTruncated(sp[b*sl.Line:], sl.Elem, ph[b*pl.Line:], pl.Elem, scratch)
			}
			continue
		}
		half := p.plan.half
		zt := scratch[:h*c]
		first2Pairs(zt, c, ph, pl, half.perm)
		combineB(zt, c, half.stages[forward][1:])
		p.plan.untangleB(sp, sl, c, zt, p.nk, s)
	}
}

// gather loads dst from the line at src[j*elem].
func gather(dst, src []complex128, elem int) {
	for j := range dst {
		dst[j] = src[j*elem]
	}
}

// storeB stores the nb lines-innermost lines of x in the layout l of dst.
func storeB(dst []complex128, l Layout, x []complex128, nb int) {
	for j := 0; j < len(x)/nb; j++ {
		o := j * l.Elem
		for _, v := range x[j*nb:][:nb] {
			dst[o] = v
			o += l.Line
		}
	}
}

// loadB is Plan.load for nb lines laid out by l in src: x receives them
// lines-innermost in digit-reversed order, through the innermost stage when
// that is a radix-2 one (first2's butterflies), and the stages left to run
// are returned.
func loadB(x []complex128, nb int, src []complex128, l Layout, perm []int32, stages []stage) []stage {
	if len(stages) > 0 && stages[0].r == 2 {
		for i := 1; i < len(perm); i += 2 {
			ja, jb := int(perm[i-1])*l.Elem, int(perm[i])*l.Elem
			xa, xb := x[(i-1)*nb:][:nb], x[i*nb:][:nb]
			for b := range xa {
				u, v := src[ja], src[jb]
				xa[b] = u + v
				xb[b] = u - v
				ja += l.Line
				jb += l.Line
			}
		}
		return stages[1:]
	}
	for i, j := range perm {
		o := int(j) * l.Elem
		row := x[i*nb:][:nb]
		for b := range row {
			row[b] = src[o]
			o += l.Line
		}
	}
	return stages
}

// first2Pairs is loadB's radix-2 branch for the half-length plan of a real
// forward transform, with the pair packing z[j] = (x[2j], x[2j+1]) folded
// into the permuted load: the m real points of line b lie at
// phys[i*l.Elem + b*l.Line].
func first2Pairs(x []complex128, nb int, phys []float64, l Layout, perm []int32) {
	for i := 1; i < len(perm); i += 2 {
		ja, jb := 2*int(perm[i-1])*l.Elem, 2*int(perm[i])*l.Elem
		xa, xb := x[(i-1)*nb:][:nb], x[i*nb:][:nb]
		for b := range xa {
			u := complex(phys[ja], phys[ja+l.Elem])
			v := complex(phys[jb], phys[jb+l.Elem])
			xa[b] = u + v
			xb[b] = u - v
			ja += l.Line
			jb += l.Line
		}
	}
}

// first2PaddedB is first2Padded for nb lines laid out by l in spec, into
// x lines-innermost.
func first2PaddedB(x []complex128, nb int, spec []complex128, l Layout, load []int32) {
	for i := 1; i < len(load); i += 2 {
		ja, jb := int(load[i-1]), int(load[i])
		xa, xb := x[(i-1)*nb:][:nb], x[i*nb:][:nb]
		oa, ob := ja*l.Elem, jb*l.Elem
		switch {
		case ja >= 0 && jb >= 0:
			for b := range xa {
				u, v := spec[oa], spec[ob]
				xa[b] = u + v
				xb[b] = u - v
				oa += l.Line
				ob += l.Line
			}
		case ja >= 0:
			for b := range xa {
				u := spec[oa]
				xa[b], xb[b] = u, u
				oa += l.Line
			}
		case jb >= 0:
			for b := range xa {
				v := spec[ob]
				xa[b], xb[b] = v, -v
				ob += l.Line
			}
		default:
			clear(xa)
			clear(xb)
		}
	}
}

// combineB is combine for nb lines held lines-innermost in x.
func combineB(x []complex128, nb int, stages []stage) {
	for i := range stages {
		st := &stages[i]
		switch st.r {
		case 2:
			radix2B(x, nb, st.m, st.tw)
		case 3:
			radix3B(x, nb, st.m, st.tw, st.w[1], st.w[2])
		default:
			radix5B(x, nb, st.m, st.tw, &st.w)
		}
	}
}

// radix2B is radix2 over nb lines: twiddle k of a block multiplies the nb
// points k of its second sub-transform.
func radix2B(x []complex128, nb, m int, tw []complex128) {
	tw = tw[:m]
	s := m * nb
	for len(x) >= 2*s {
		for k, w := range tw {
			a := x[k*nb:][:nb]
			b := x[s+k*nb:][:nb]
			for i := range a {
				u := a[i]
				v := w * b[i]
				a[i] = u + v
				b[i] = u - v
			}
		}
		x = x[2*s:]
	}
}

// radix3B is radix3 over nb lines.
func radix3B(x []complex128, nb, m int, tw []complex128, w1, w2 complex128) {
	t1, t2 := tw[:m], tw[m:][:m]
	s := m * nb
	for len(x) >= 3*s {
		for k, u := range t1 {
			v := t2[k]
			x0 := x[k*nb:][:nb]
			x1 := x[s+k*nb:][:nb]
			x2 := x[2*s+k*nb:][:nb]
			for i := range x0 {
				a := x0[i]
				b := u * x1[i]
				c := v * x2[i]
				x0[i] = a + b + c
				x1[i] = a + w1*b + w2*c
				x2[i] = a + w2*b + w1*c
			}
		}
		x = x[3*s:]
	}
}

// radix5B is radix5 over nb lines.
func radix5B(x []complex128, nb, m int, tw []complex128, w *[5]complex128) {
	t1, t2, t3, t4 := tw[:m], tw[m:][:m], tw[2*m:][:m], tw[3*m:][:m]
	w1, w2, w3, w4 := w[1], w[2], w[3], w[4]
	s := m * nb
	for len(x) >= 5*s {
		for k, u := range t1 {
			v2, v3, v4 := t2[k], t3[k], t4[k]
			x0 := x[k*nb:][:nb]
			x1 := x[s+k*nb:][:nb]
			x2 := x[2*s+k*nb:][:nb]
			x3 := x[3*s+k*nb:][:nb]
			x4 := x[4*s+k*nb:][:nb]
			for i := range x0 {
				z0 := x0[i]
				z1 := u * x1[i]
				z2 := v2 * x2[i]
				z3 := v3 * x3[i]
				z4 := v4 * x4[i]
				x0[i] = z0 + z1 + z2 + z3 + z4
				x1[i] = z0 + z1*w1 + z2*w2 + z3*w3 + z4*w4
				x2[i] = z0 + z1*w2 + z2*w4 + z3*w1 + z4*w3
				x3[i] = z0 + z1*w3 + z2*w1 + z3*w4 + z4*w2
				x4[i] = z0 + z1*w4 + z2*w3 + z3*w2 + z4*w1
			}
		}
		x = x[5*s:]
	}
}

// last3TruncatedB is last3Truncated for nb lines held lines-innermost in x,
// storing the kept modes of line b at spec[k*l.Elem + b*l.Line].
func last3TruncatedB(spec []complex128, l Layout, nb, n int, x []complex128, st *stage, s float64) {
	m := st.m
	pos, neg := bands(n)
	w1, w2 := st.w[1], st.w[2]
	t1, t2 := st.tw[:m], st.tw[m:][:m]
	sz := m * nb
	shift := n - m // x2[k] lands on mode shift+k
	for k, u := range t1 {
		lo, hi := k < pos, k >= m-neg
		if !lo && !hi {
			continue
		}
		v := t2[k]
		x0 := x[k*nb:][:nb]
		x1 := x[sz+k*nb:][:nb]
		x2 := x[2*sz+k*nb:][:nb]
		o0, o2 := k*l.Elem, (shift+k)*l.Elem
		for i := range x0 {
			a := x0[i]
			b := u * x1[i]
			c := v * x2[i]
			if lo {
				spec[o0] = scale(a+b+c, s)
			}
			if hi {
				spec[o2] = scale(a+w2*b+w1*c, s)
			}
			o0 += l.Line
			o2 += l.Line
		}
	}
	if n%2 == 0 {
		o := pos * l.Elem
		for b := 0; b < nb; b++ {
			spec[o] = 0 // Nyquist not carried
			o += l.Line
		}
	}
}

// tangleB is inverseModes' tangling pass for nb lines: the nk modes of line
// b lie at src[k*l.Elem + b*l.Line], and z receives the h = n/2 tangled
// points lines-innermost.
func (p *RealPlan) tangleB(z []complex128, nb int, src []complex128, l Layout, nk int) {
	h := p.n / 2
	w := p.w[:h]
	E, L := l.Elem, l.Line
	z0 := z[:nb]
	for b := range z0 {
		var xh complex128
		if h < nk {
			xh = complex(real(src[h*E+b*L]), 0)
		}
		z0[b] = tangle(complex(real(src[b*L]), 0), xh, w[0])
	}
	// X[k] is carried for k < nk, X[h-k] for k > h-nk.
	onlyK, both := min(nk, h-nk+1), min(nk, h)
	for k := 1; k < onlyK; k++ {
		o, wk := k*E, w[k]
		for b, zk := 0, z[k*nb:][:nb]; b < len(zk); b++ {
			e := half(src[o])
			zk[b] = tangleHalves(e, e, wk)
			o += L
		}
	}
	for k := max(1, onlyK); k <= h-nk; k++ {
		clear(z[k*nb:][:nb])
	}
	for k := max(1, h-nk+1); k < both; k++ {
		ok, or, wk := k*E, (h-k)*E, w[k]
		for b, zk := 0, z[k*nb:][:nb]; b < len(zk); b++ {
			zk[b] = tangle(src[ok], conj(src[or]), wk)
			ok += L
			or += L
		}
	}
	for k := max(1, h-nk+1, both); k < h; k++ {
		or, wk := (h-k)*E, w[k]
		for b, zk := 0, z[k*nb:][:nb]; b < len(zk); b++ {
			e := half(conj(src[or]))
			zk[b] = tangleHalves(e, -e, wk)
			or += L
		}
	}
}

// untangleB is forwardModes' untangling pass for nb lines held
// lines-innermost in zt, storing the first nk modes of line b, scaled by s,
// at dst[k*l.Elem + b*l.Line].
func (p *RealPlan) untangleB(dst []complex128, l Layout, nb int, zt []complex128, nk int, s float64) {
	h := p.n / 2
	w := p.w[:nk]
	z0 := zt[:nb]
	last := nk
	for b, v := range z0 {
		dst[b*l.Line] = untangle(v, conj(v), w[0], s)
		if nk > h {
			dst[h*l.Elem+b*l.Line] = untangle(v, conj(v), w[h], s)
		}
	}
	if nk > h {
		last = h
	}
	for k := 1; k < last; k++ {
		zk, zr := zt[k*nb:][:nb], zt[(h-k)*nb:][:nb]
		o, wk := k*l.Elem, w[k]
		for b, v := range zk {
			dst[o] = untangle(v, conj(zr[b]), wk, s)
			o += l.Line
		}
	}
}
