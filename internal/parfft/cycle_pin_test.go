package parfft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

// cycleDigest runs two Cycles of a kernel on a 2x2 in-process world over a
// 12x9x10 grid (uneven kx, y and z splits), two fields filled from a per-rank
// seeded generator, and returns the SHA-256 of every output bit: cycle by
// cycle, rank by rank, field by field. The second cycle is fed the first
// one's output, so the digest also covers the reuse of the kernel's
// workspace.
func cycleDigest(custom bool) string {
	const pa, pb, nx, ny, nz, nf = 2, 2, 12, 9, 10, 2
	outs := make([][][]complex128, pa*pb) // per rank: cycle-major field outputs
	mpi.Run(pa*pb, func(c *mpi.Comm) {
		var k *Kernel
		if custom {
			k = NewCustom(c, pa, pb, nx, ny, nz, par.NewPool(2))
		} else {
			k = NewBaseline(c, pa, pb, nx, ny, nz)
		}
		rng := rand.New(rand.NewSource(int64(31*c.Rank() + 3)))
		fields := make([][]complex128, nf)
		for f := range fields {
			fields[f] = make([]complex128, k.YPencilLen())
			for i := range fields[f] {
				fields[f][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		for cyc := 0; cyc < 2; cyc++ {
			out, _ := k.Cycle(fields)
			for f := range out {
				outs[c.Rank()] = append(outs[c.Rank()], append([]complex128(nil), out[f]...))
				copy(fields[f], out[f])
			}
		}
	})
	h := sha256.New()
	var b [8]byte
	for cyc := 0; cyc < 2; cyc++ {
		for _, rank := range outs {
			for _, f := range rank[cyc*nf : (cyc+1)*nf] {
				for _, v := range f {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(v)))
					h.Write(b[:])
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(v)))
					h.Write(b[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCyclePinned pins the output bits of two Cycles of both kernels on a 2x2
// world against digests recorded before Cycle lost its pipelined transposes,
// so any change to the order of a cycle's transposes and transforms that moves
// a bit shows here. A digest has no tolerance, so it is checked only on amd64,
// where the compiler fuses no multiply-add.
func TestCyclePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	for _, tc := range []struct {
		name   string
		custom bool
		want   string
	}{
		{"custom", true, "e599668203b7467011de3708193ccf6abc3c1398a943301f5a5fc3da8b833ad2"},
		{"baseline", false, "8fc464ad1c2b4489ff69dd8ddb98e8bdedd1d9919a226e81974a257e0eaf125d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := cycleDigest(tc.custom); got != tc.want {
				t.Errorf("cycle digest = %s, want %s", got, tc.want)
			}
		})
	}
}
