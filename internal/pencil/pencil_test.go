package pencil

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

// globalField builds a deterministic global array indexed (kx, kz, y) so
// every rank can compute expected values without communication.
func globalVal(f, kx, kz, y int) complex128 {
	return complex(float64(1000*f+100*kx+10*kz+y), float64(kx-kz))
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

func checkZPencil(t *testing.T, d *Decomp, f int, got []complex128) {
	t.Helper()
	kl, kh := d.KxRange()
	yl, yh := d.YRange()
	nyLoc := yh - yl
	pos := 0
	for kx := kl; kx < kh; kx++ {
		for y := yl; y < yh; y++ {
			for kz := 0; kz < d.NZ; kz++ {
				want := globalVal(f, kx, kz, y)
				if got[pos] != want {
					t.Fatalf("z-pencil f=%d kx=%d y=%d kz=%d: got %v want %v", f, kx, y, kz, got[pos], want)
				}
				pos++
			}
		}
	}
	_ = nyLoc
}

func checkXPencil(t *testing.T, d *Decomp, f int, got []complex128, zLen int) {
	t.Helper()
	yl, yh := d.YRange()
	zl, zh := d.ZRangeX(zLen)
	pos := 0
	for y := yl; y < yh; y++ {
		for z := zl; z < zh; z++ {
			for kx := 0; kx < d.NKx; kx++ {
				want := globalVal(f, kx, z, y)
				if got[pos] != want {
					t.Fatalf("x-pencil f=%d y=%d z=%d kx=%d: got %v want %v", f, y, z, kx, got[pos], want)
				}
				pos++
			}
		}
	}
}

func TestTransposePath(t *testing.T) {
	cases := []struct{ pa, pb, nkx, nz, ny int }{
		{1, 1, 4, 6, 5},
		{2, 2, 8, 8, 8},
		{4, 2, 8, 12, 10},
		{2, 4, 8, 12, 10},
		{3, 2, 7, 11, 9}, // uneven divisions everywhere
		{4, 4, 16, 16, 16},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("pa%d_pb%d_%dx%dx%d", tc.pa, tc.pb, tc.nkx, tc.nz, tc.ny), func(t *testing.T) {
			mpi.Run(tc.pa*tc.pb, func(c *mpi.Comm) {
				d := New(c, tc.pa, tc.pb, tc.nkx, tc.nz, tc.ny, par.NewPool(1))
				const nf = 3
				src := make([][]complex128, nf)
				for f := range src {
					src[f] = yPencilOf(d, f)
				}
				// y -> z: verify against global data.
				zp := d.YtoZ(nil, src)
				for f := 0; f < nf; f++ {
					checkZPencil(t, d, f, zp[f])
				}
				// z -> x (spectral z extent): verify.
				xp := d.ZtoX(nil, zp, d.NZ)
				for f := 0; f < nf; f++ {
					checkXPencil(t, d, f, xp[f], d.NZ)
				}
				// Round trip back.
				zp2 := d.XtoZ(nil, xp, d.NZ)
				for f := 0; f < nf; f++ {
					checkZPencil(t, d, f, zp2[f])
				}
				yp2 := d.ZtoY(nil, zp2)
				for f := 0; f < nf; f++ {
					want := yPencilOf(d, f)
					for i := range want {
						if yp2[f][i] != want[i] {
							t.Fatalf("y roundtrip f=%d i=%d: got %v want %v", f, i, yp2[f][i], want[i])
						}
					}
				}
			})
		})
	}
}

func TestTransposeWithPaddedZ(t *testing.T) {
	// z extent larger than NZ (physical 3/2 grid) for the z<->x transposes.
	mpi.Run(4, func(c *mpi.Comm) {
		d := New(c, 2, 2, 6, 8, 8, par.NewPool(2))
		zLen := 12 // 3*NZ/2
		kl, kh := d.KxRange()
		yl, yh := d.YRange()
		nf := 2
		src := make([][]complex128, nf)
		for f := range src {
			src[f] = make([]complex128, (kh-kl)*(yh-yl)*zLen)
			pos := 0
			for kx := kl; kx < kh; kx++ {
				for y := yl; y < yh; y++ {
					for z := 0; z < zLen; z++ {
						src[f][pos] = globalVal(f, kx, z, y)
						pos++
					}
				}
			}
		}
		xp := d.ZtoX(nil, src, zLen)
		for f := 0; f < nf; f++ {
			checkXPencil(t, d, f, xp[f], zLen)
		}
		back := d.XtoZ(nil, xp, zLen)
		for f := 0; f < nf; f++ {
			for i := range src[f] {
				if back[f][i] != src[f][i] {
					t.Fatalf("padded roundtrip f=%d i=%d", f, i)
				}
			}
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
