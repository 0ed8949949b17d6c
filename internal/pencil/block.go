package pencil

// block is a 3-D block of one field's elements, read or written in the order
// of its axes, outermost first: element (i, j, k) sits at off + i*s[0] +
// j*s[1] + k*s[2]. la is the axis a transpose chunks over — its lines.
type block struct {
	n, s    [3]int
	off, la int
}

// lines restricts b to lines [lo, hi) of its chunk axis.
func (b block) lines(lo, hi int) block {
	b.off += lo * b.s[b.la]
	b.n[b.la] = hi - lo
	return b
}

func (b block) len() int { return b.n[0] * b.n[1] * b.n[2] }

// packed is b's image packed contiguously, in b's order, at buffer position pos.
func (b block) packed(pos int) block {
	b.s = [3]int{b.n[1] * b.n[2], b.n[2], 1}
	b.off = pos
	return b
}

// swap exchanges axes i and j, keeping track of the chunk axis.
func (b *block) swap(i, j int) {
	b.n[i], b.n[j] = b.n[j], b.n[i]
	b.s[i], b.s[j] = b.s[j], b.s[i]
	switch b.la {
	case i:
		b.la = j
	case j:
		b.la = i
	}
}

// inDstOrder permutes the axes of a source/destination pair together: the
// chunk axis outermost, so a run of lines reads and writes one slab, then
// the other two in the destination's memory order, larger stride first.
func inDstOrder(sb, db block) (block, block) {
	sb.swap(0, sb.la)
	db.swap(0, db.la)
	if db.s[2] > db.s[1] {
		sb.swap(1, 2)
		db.swap(1, 2)
	}
	return sb, db
}

// copyBlock copies the elements of sb in src, in order, to those of db in
// dst; the two blocks have the same extents. It is the one loop nest that
// moves pencil elements: pack, unpack, the own-block move and Reorder.
func copyBlock(dst []complex128, db block, src []complex128, sb block) {
	n, ds, ss := sb.n[2], db.s[2], sb.s[2]
	for i := 0; i < sb.n[0]; i++ {
		for j := 0; j < sb.n[1]; j++ {
			do := db.off + i*db.s[0] + j*db.s[1]
			so := sb.off + i*sb.s[0] + j*sb.s[1]
			switch {
			case ds == 1 && ss == 1:
				copy(dst[do:do+n], src[so:so+n])
			case ds == 1:
				row := dst[do : do+n]
				for k := range row {
					row[k] = src[so+k*ss]
				}
			case ss == 1:
				for k, v := range src[so : so+n] {
					dst[do+k*ds] = v
				}
			default:
				for k := 0; k < n; k++ {
					dst[do+k*ds] = src[so+k*ss]
				}
			}
		}
	}
}
