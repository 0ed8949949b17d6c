package parfft

import "channeldns/internal/schedule"

// Schedule returns the declarative schedule of one Cycle over nf fields as
// this kernel executes it: four global transposes and four batched FFT
// stages, no 3/2 padding, y untouched. The kind follows the kernel's
// construction — Custom (Nyquist dropped) or the P3DFFT-style baseline
// (Nyquist carried, heavier reordering, 3x scratch).
func (k *Kernel) Schedule(nf int) *schedule.Schedule {
	kind := schedule.FFTP3DFFT
	if k.DropNyquist {
		kind = schedule.FFTCustom
	}
	return schedule.FFTCycle(schedule.FFTCycleParams{
		Nx: k.Nx, Ny: k.D.NY, Nz: k.D.NZ,
		PA: k.D.PA, PB: k.D.PB,
		Fields: nf,
		Kind:   kind,
	})
}
