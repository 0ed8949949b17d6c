package pencil

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

// globalVal is a deterministic global array indexed (f, kx, kz, y) so every
// rank can compute expected values without communication. Each index gets
// ten bits, so it is injective for every extent below 1024 and exact in a
// float64.
func globalVal(f, kx, kz, y int) complex128 {
	return complex(float64(((f<<10+kx)<<10+kz)<<10+y), float64(kx-kz))
}

// yPencilOf fills this rank's y-pencil slice of the global field.
func yPencilOf(d *Decomp, f int) []complex128 {
	kl, kh := d.KxRange()
	zl, zh := d.KzRangeY()
	out := make([]complex128, (kh-kl)*(zh-zl)*d.NY)
	pos := 0
	for kx := kl; kx < kh; kx++ {
		for kz := zl; kz < zh; kz++ {
			for y := 0; y < d.NY; y++ {
				out[pos] = globalVal(f, kx, kz, y)
				pos++
			}
		}
	}
	return out
}

// zPencilOf fills this rank's z-pencil slice of the global field at z
// extent zLen (the spectral NZ or a padded physical length).
func zPencilOf(d *Decomp, f, zLen int) []complex128 {
	kl, kh := d.KxRange()
	yl, yh := d.YRange()
	out := make([]complex128, 0, d.ZPencilLen(zLen))
	for kx := kl; kx < kh; kx++ {
		for y := yl; y < yh; y++ {
			for z := 0; z < zLen; z++ {
				out = append(out, globalVal(f, kx, z, y))
			}
		}
	}
	return out
}

// xPencilOf fills this rank's x-pencil slice of the global field at z
// extent zLen.
func xPencilOf(d *Decomp, f, zLen int) []complex128 {
	yl, yh := d.YRange()
	zl, zh := d.ZRangeX(zLen)
	out := make([]complex128, 0, d.XPencilLen(zLen))
	for y := yl; y < yh; y++ {
		for z := zl; z < zh; z++ {
			for kx := 0; kx < d.NKx; kx++ {
				out = append(out, globalVal(f, kx, z, y))
			}
		}
	}
	return out
}

// fieldsOf builds nf fields with one of the *PencilOf layouts.
func fieldsOf(nf int, of func(f int) []complex128) [][]complex128 {
	out := make([][]complex128, nf)
	for f := range out {
		out[f] = of(f)
	}
	return out
}

// sameFields reports, on the first differing element, how got differs from
// want. globalVal is injective, so a wrong value names the element that
// landed in its slot.
func sameFields(got, want [][]complex128) error {
	for f := range want {
		for i := range want[f] {
			if got[f][i] != want[f][i] {
				return fmt.Errorf("f=%d i=%d: got %v want %v", f, i, got[f][i], want[f][i])
			}
		}
	}
	return nil
}

// TestTransposePath checks every direction against the global layout, each
// from its exact input: even and uneven grids, a serial and a two-worker
// pool, the spectral and (at pa ∈ {1, 3}) a padded z extent for the CommA
// pair, and with Overlap on through RunPipelined, whose consume ranges must
// tile [0, lineN) in ascending order.
func TestTransposePath(t *testing.T) {
	cases := []struct{ pa, pb, nkx, nz, ny int }{
		{1, 1, 4, 6, 5},
		{2, 2, 8, 8, 8},
		{4, 2, 8, 12, 10},
		{2, 4, 8, 12, 10},
		{3, 2, 7, 11, 9}, // uneven divisions everywhere
		{4, 4, 16, 16, 16},
		{1, 3, 5, 7, 10}, // uneven over CommB alone
		{3, 1, 7, 5, 8},  // uneven over CommA alone
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("pa%d_pb%d_%dx%dx%d", tc.pa, tc.pb, tc.nkx, tc.nz, tc.ny), func(t *testing.T) {
			zLens := []int{tc.nz}
			if tc.pa == 1 || tc.pa == 3 {
				zLens = append(zLens, 3*tc.nz/2)
			}
			for _, workers := range []int{1, 2} {
				for _, zLen := range zLens {
					for _, overlap := range []bool{false, true} {
						t.Run(fmt.Sprintf("w%d_z%d_overlap=%v", workers, zLen, overlap), func(t *testing.T) {
							mpi.Run(tc.pa*tc.pb, func(c *mpi.Comm) {
								pool := par.NewPool(workers)
								defer pool.Close()
								d := New(c, tc.pa, tc.pb, tc.nkx, tc.nz, tc.ny, pool)
								d.Overlap = overlap
								transposePath(t, d, zLen)
							})
						})
					}
				}
			}
		})
	}
}

// transposePath is one rank's part of TestTransposePath.
func transposePath(t *testing.T, d *Decomp, zLen int) {
	const nf = 3
	me := d.Cart.Rank()
	y := fieldsOf(nf, func(f int) []complex128 { return yPencilOf(d, f) })
	z := fieldsOf(nf, func(f int) []complex128 { return zPencilOf(d, f, d.NZ) })
	zpad := fieldsOf(nf, func(f int) []complex128 { return zPencilOf(d, f, zLen) })
	x := fieldsOf(nf, func(f int) []complex128 { return xPencilOf(d, f, zLen) })
	kl, kh := d.KxRange()
	yl, yh := d.YRange()

	next := 0
	consume := func(lo, hi int) {
		if lo != next || hi <= lo {
			t.Errorf("rank %d: consume(%d, %d) after lines [0, %d)", me, lo, hi, next)
		}
		next = hi
	}
	check := func(dir string, got, want [][]complex128, lineN int) {
		if err := sameFields(got, want); err != nil {
			t.Errorf("rank %d %s: %v", me, dir, err)
		}
		if d.Overlap && next != lineN {
			t.Errorf("rank %d %s: consume covered [0, %d) of [0, %d)", me, dir, next, lineN)
		}
		next = 0
	}
	if !d.Overlap {
		check("YtoZ", d.YtoZ(nil, y), z, 0)
		check("ZtoX", d.ZtoX(nil, zpad, zLen), x, 0)
		check("XtoZ", d.XtoZ(nil, x, zLen), zpad, 0)
		check("ZtoY", d.ZtoY(nil, z), y, 0)
		return
	}
	check("YtoZ", d.YtoZPipelined(nil, y, consume), z, kh-kl)
	check("ZtoX", d.Plan(DirZtoX, zLen, nf).RunPipelined(nil, zpad, consume), x, yh-yl)
	check("XtoZ", d.Plan(DirXtoZ, zLen, nf).RunPipelined(nil, x, consume), zpad, yh-yl)
	check("ZtoY", d.Plan(DirZtoY, d.NZ, nf).RunPipelined(nil, z, consume), y, kh-kl)
}

func TestTransposeWithPaddedZ(t *testing.T) {
	// z extent larger than NZ (physical 3/2 grid) for the z<->x transposes.
	mpi.Run(4, func(c *mpi.Comm) {
		d := New(c, 2, 2, 6, 8, 8, par.NewPool(2))
		const zLen, nf = 12, 2 // 3*NZ/2
		src := fieldsOf(nf, func(f int) []complex128 { return zPencilOf(d, f, zLen) })
		xp := d.ZtoX(nil, src, zLen)
		if err := sameFields(xp, fieldsOf(nf, func(f int) []complex128 { return xPencilOf(d, f, zLen) })); err != nil {
			t.Errorf("rank %d padded ZtoX: %v", c.Rank(), err)
		}
		if err := sameFields(d.XtoZ(nil, xp, zLen), src); err != nil {
			t.Errorf("rank %d padded round trip: %v", c.Rank(), err)
		}
	})
}

func TestTransposeRandomRoundTripProperty(t *testing.T) {
	// Random data, several process grids: YtoZ then ZtoY is the identity.
	for _, grid := range [][2]int{{1, 4}, {4, 1}, {2, 3}} {
		grid := grid
		mpi.Run(grid[0]*grid[1], func(c *mpi.Comm) {
			d := New(c, grid[0], grid[1], 5, 9, 11, par.NewPool(1))
			rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
			src := [][]complex128{make([]complex128, d.YPencilLen())}
			for i := range src[0] {
				src[0][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			zp := d.YtoZ(nil, src)
			back := d.ZtoY(nil, zp)
			for i := range src[0] {
				if back[0][i] != src[0][i] {
					t.Errorf("grid %v rank %d: roundtrip differs at %d", grid, c.Rank(), i)
					return
				}
			}
		})
	}
}

func TestReorder(t *testing.T) {
	ni, nj, nk := 3, 4, 5
	src := make([]complex128, ni*nj*nk)
	for i := range src {
		src[i] = complex(float64(i), 0)
	}
	dst := make([]complex128, ni*nj*nk)
	Reorder(dst, src, ni, nj, nk, par.NewPool(2))
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			for k := 0; k < nk; k++ {
				want := src[(i*nj+j)*nk+k]
				got := dst[(j*nk+k)*ni+i]
				if got != want {
					t.Fatalf("Reorder(%d,%d,%d): got %v want %v", i, j, k, got, want)
				}
			}
		}
	}
}

func TestReorderThreadConsistency(t *testing.T) {
	ni, nj, nk := 16, 24, 8
	src := make([]complex128, ni*nj*nk)
	rng := rand.New(rand.NewSource(3))
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ref := make([]complex128, len(src))
	Reorder(ref, src, ni, nj, nk, par.NewPool(1))
	var wg sync.WaitGroup
	for _, w := range []int{2, 4, 8} {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]complex128, len(src))
			Reorder(dst, src, ni, nj, nk, par.NewPool(w))
			for i := range ref {
				if dst[i] != ref[i] {
					t.Errorf("workers=%d differs at %d", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestChunkCoversAll(t *testing.T) {
	for _, n := range []int{1, 7, 16, 100} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			prev := 0
			for r := 0; r < p; r++ {
				lo, hi := Chunk(n, p, r)
				if lo != prev {
					t.Fatalf("chunk(%d,%d,%d) lo=%d want %d", n, p, r, lo, prev)
				}
				if hi < lo {
					t.Fatalf("chunk(%d,%d,%d) hi<lo", n, p, r)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("chunk(%d,%d,*) covers %d", n, p, prev)
			}
		}
	}
}
