package stats

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// profileDigest hashes the bits of every value of the profiles, in order.
func profileDigest(profs ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range profs {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func spectraDigest(sp Spectra1D) uint64 {
	profs := [][]float64{sp.K}
	for _, comp := range [][][]float64{sp.Euu, sp.Evv, sp.Eww} {
		profs = append(profs, comp...)
	}
	return profileDigest(profs...)
}

// TestStatsPinned pins the bits of every statistic after three steps of the
// default initial condition at 16x17x16, serial and distributed, to values
// recorded once the world reductions summed in rank order. Each rank count
// reduces over a different split of the modes, so each has its own row.
// The digests hold only where the compiler never fuses a multiply with an
// add (amd64).
func TestStatsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64")
	}
	for _, tc := range []struct {
		name                       string
		pa, pb                     int
		snap, budget, specX, specZ uint64
	}{
		{"1x1", 1, 1, 0xeb56bd6987c49f90, 0x640b81c3a46afb6a, 0x89e47a824aa38487, 0xaa457356136b2668},
		{"1x2", 1, 2, 0x3e165dc8b220d6e7, 0x33029e97c49a65f0, 0x6a246a15a59bb7e8, 0x53d80a833b866948},
		{"2x2", 2, 2, 0xcf28f258a9eb4f57, 0x43a786c7a3eb97e8, 0x6a246a15a59bb7e8, 0xe13e2d31fcf43e5a},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1, PA: tc.pa, PB: tc.pb}
			var snap, budget, specX, specZ uint64
			mpi.Run(tc.pa*tc.pb, func(c *mpi.Comm) {
				s, err := core.New(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				s.InitDefault(0.3, 7)
				core.Advance(s, 3)
				p := Snapshot(s)
				b := TKEBudget(s)
				yIdx := []int{0, 3, 8}
				sx := spectraDigest(SpectraX(s, yIdx))
				sz := spectraDigest(SpectraZ(s, yIdx))
				if c.Rank() == 0 {
					snap = profileDigest(p.Y, p.U, p.UU, p.VV, p.WW, p.UV)
					budget = profileDigest(b.Y, b.TKE, b.Production, b.Dissipation, b.ViscousDiffusion)
					specX, specZ = sx, sz
				}
			})
			for _, d := range []struct {
				name      string
				got, want uint64
			}{{"Snapshot", snap, tc.snap}, {"TKEBudget", budget, tc.budget}, {"SpectraX", specX, tc.specX}, {"SpectraZ", specZ, tc.specZ}} {
				if d.got != d.want {
					t.Errorf("%s digest %#x, pinned %#x", d.name, d.got, d.want)
				}
			}
		})
	}
}
