package pencil

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"channeldns/internal/mpi"
)

// wireLayoutDigests holds, per grid, z extent and direction, the digest of
// the send image Run packs and of the wire arena RunPipelined packs, every
// rank's in rank order. They were recorded while each direction still had
// its own hand-written pack and unpack loops.
var wireLayoutDigests = map[string][2]uint64{
	"2x2_8x8x8_z8_YtoZ":   {0x3d10f07b8751ae05, 0xda8bd311ff8f0765},
	"2x2_8x8x8_z8_ZtoY":   {0x4730ca29d1305945, 0xf2913512a1270f65},
	"2x2_8x8x8_z8_ZtoX":   {0x6c7259283b8367a5, 0xb85897690b25e535},
	"2x2_8x8x8_z8_XtoZ":   {0x3b2c91095193b225, 0x37e4ce7402ffc735},
	"2x2_8x8x8_z12_YtoZ":  {0x3d10f07b8751ae05, 0xda8bd311ff8f0765},
	"2x2_8x8x8_z12_ZtoY":  {0x4730ca29d1305945, 0xf2913512a1270f65},
	"2x2_8x8x8_z12_ZtoX":  {0x4d743d180eb9b9d5, 0x3fb41cf0ce03a295},
	"2x2_8x8x8_z12_XtoZ":  {0x53c2ac57d7ca8fd5, 0xdd19c540e05eba15},
	"3x2_7x11x9_z11_YtoZ": {0x6715376a94266734, 0xa3bea35466c74ddc},
	"3x2_7x11x9_z11_ZtoY": {0x1b603705ec21adac, 0x8716cfd883cafe94},
	"3x2_7x11x9_z11_ZtoX": {0x70c9a3c67ab99553, 0x913b49b924672793},
	"3x2_7x11x9_z11_XtoZ": {0x87c896e36e13281f, 0xe2d0d4674c9ef947},
	"3x2_7x11x9_z16_YtoZ": {0x6715376a94266734, 0xa3bea35466c74ddc},
	"3x2_7x11x9_z16_ZtoY": {0x1b603705ec21adac, 0x8716cfd883cafe94},
	"3x2_7x11x9_z16_ZtoX": {0x6f61ebe0455ece53, 0xa26d26c8c9cf7b93},
	"3x2_7x11x9_z16_XtoZ": {0x6d9dd9e6e0fa12d8, 0x8409f5f0cc417ecc},
	"1x3_5x7x10_z7_YtoZ":  {0x4af9190c2724acc1, 0x89ade403321d11e9},
	"1x3_5x7x10_z7_ZtoY":  {0xa57a628af83b2211, 0xfcc790b90a30aea1},
	"1x3_5x7x10_z7_ZtoX":  {0x81d23fd7003c2305, 0x81d23fd7003c2305},
	"1x3_5x7x10_z7_XtoZ":  {0x81d23fd7003c2305, 0x81d23fd7003c2305},
	"1x3_5x7x10_z10_YtoZ": {0x4af9190c2724acc1, 0x89ade403321d11e9},
	"1x3_5x7x10_z10_ZtoY": {0xa57a628af83b2211, 0xfcc790b90a30aea1},
	"1x3_5x7x10_z10_ZtoX": {0x81d23fd7003c2305, 0x81d23fd7003c2305},
	"1x3_5x7x10_z10_XtoZ": {0x81d23fd7003c2305, 0x81d23fd7003c2305},
}

// TestWireLayoutPinned pins the order of the elements on the wire, which
// TestTransposePath cannot see: it checks destinations only. Every direction
// runs from sources filled with globalVal on an even grid and two uneven
// ones, at the spectral and the padded z extent; the digest covers p.sbuf,
// the packed send image, after Run, and with Overlap on the parity arena
// every chunk of RunPipelined was packed into.
func TestWireLayoutPinned(t *testing.T) {
	const nf = 2
	for _, g := range []struct{ pa, pb, nkx, nz, ny int }{
		{2, 2, 8, 8, 8},
		{3, 2, 7, 11, 9},
		{1, 3, 5, 7, 10},
	} {
		for _, zLen := range []int{g.nz, 3 * g.nz / 2} {
			for dir := DirYtoZ; dir < numDirs; dir++ {
				key := fmt.Sprintf("%dx%d_%dx%dx%d_z%d_%v", g.pa, g.pb, g.nkx, g.nz, g.ny, zLen, dir)
				var got [2]uint64
				for mode, overlap := range []bool{false, true} {
					images := make([][]complex128, g.pa*g.pb)
					mpi.Run(g.pa*g.pb, func(c *mpi.Comm) {
						d := New(c, g.pa, g.pb, g.nkx, g.nz, g.ny, nil)
						d.Overlap = overlap
						p := d.Plan(dir, zLen, nf)
						p.RunPipelined(nil, fieldsOf(nf, func(f int) []complex128 {
							switch dir {
							case DirYtoZ:
								return yPencilOf(d, f)
							case DirXtoZ:
								return xPencilOf(d, f, p.zLen)
							}
							return zPencilOf(d, f, p.zLen)
						}), nil)
						images[c.Rank()] = p.sbuf
						if overlap && p.np > 1 {
							images[c.Rank()] = p.wire[p.parity]
						}
					})
					got[mode] = digestImages(images)
				}
				if want, ok := wireLayoutDigests[key]; !ok || got != want {
					t.Errorf("%s: digests {%#x, %#x}, want %#x", key, got[0], got[1], want)
				}
			}
		}
	}
}

// digestImages is the FNV-64a digest of the float bits of each image, with
// its length in front, in order.
func digestImages(images [][]complex128) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, img := range images {
		put(uint64(len(img)))
		for _, v := range img {
			put(math.Float64bits(real(v)))
			put(math.Float64bits(imag(v)))
		}
	}
	return h.Sum64()
}
