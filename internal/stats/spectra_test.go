package stats

import (
	"math"
	"testing"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// TestParsevalSpectraMatchVariances: summing the 1-D spectra over bins must
// reproduce the variance profiles exactly (plane averaging is exact in
// spectral space).
func TestParsevalSpectraMatchVariances(t *testing.T) {
	cfg := core.Config{Nx: 16, Ny: 24, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, err := core.New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetLaminar()
		s.Perturb(0.5, 3, 3, 21)
		core.Advance(s, 2)
		p := Snapshot(s)
		yIdx := []int{4, 12, 19}
		spx := SpectraX(s, yIdx)
		spz := SpectraZ(s, yIdx)
		for si, yi := range yIdx {
			for _, tc := range []struct {
				name string
				got  float64
				want float64
			}{
				{"x-uu", spx.Total(spx.Euu, si), p.UU[yi]},
				{"x-vv", spx.Total(spx.Evv, si), p.VV[yi]},
				{"x-ww", spx.Total(spx.Eww, si), p.WW[yi]},
				{"z-uu", spz.Total(spz.Euu, si), p.UU[yi]},
				{"z-vv", spz.Total(spz.Evv, si), p.VV[yi]},
				{"z-ww", spz.Total(spz.Eww, si), p.WW[yi]},
			} {
				if math.Abs(tc.got-tc.want) > 1e-10*(1+tc.want) {
					t.Errorf("station %d %s: spectrum total %g != variance %g", si, tc.name, tc.got, tc.want)
				}
			}
		}
	})
}

// TestSpectraSingleModeLandsInRightBin: one mode at (kx=3, kz'=2) must put
// all its u energy in bin 3 of the x spectrum and bin 2 of the z spectrum.
func TestSpectraSingleModeLandsInRightBin(t *testing.T) {
	cfg := core.Config{Nx: 16, Ny: 20, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := core.New(c, cfg)
		s.SetModeV(3, 2, func(y float64) complex128 {
			q := 1 - y*y
			return complex(0.2*q*q, 0)
		})
		yi := []int{10}
		spx := SpectraX(s, yi)
		spz := SpectraZ(s, yi)
		for b := range spx.Evv[0] {
			if b == 3 {
				if spx.Evv[0][b] <= 0 {
					t.Errorf("x bin 3 empty")
				}
			} else if spx.Evv[0][b] != 0 {
				t.Errorf("x bin %d has energy %g", b, spx.Evv[0][b])
			}
		}
		for b := range spz.Evv[0] {
			if b == 2 {
				if spz.Evv[0][b] <= 0 {
					t.Errorf("z bin 2 empty")
				}
			} else if spz.Evv[0][b] != 0 {
				t.Errorf("z bin %d has energy %g", b, spz.Evv[0][b])
			}
		}
	})
}

// TestSpectraDistributedMatchesSerial: spectra must be decomposition
// independent.
func TestSpectraDistributedMatchesSerial(t *testing.T) {
	cfg := core.Config{Nx: 16, Ny: 16, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1}
	var ref Spectra1D
	mpi.Run(1, func(c *mpi.Comm) {
		s, _ := core.New(c, cfg)
		s.SetLaminar()
		s.Perturb(0.4, 2, 2, 33)
		ref = SpectraX(s, []int{8})
	})
	pcfg := cfg
	pcfg.PA, pcfg.PB = 2, 2
	mpi.Run(4, func(c *mpi.Comm) {
		s, _ := core.New(c, pcfg)
		s.SetLaminar()
		s.Perturb(0.4, 2, 2, 33)
		sp := SpectraX(s, []int{8})
		for b := range ref.Euu[0] {
			if math.Abs(sp.Euu[0][b]-ref.Euu[0][b]) > 1e-12 {
				t.Fatalf("bin %d differs: %g vs %g", b, sp.Euu[0][b], ref.Euu[0][b])
			}
		}
	})
}
