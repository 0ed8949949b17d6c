package main

import (
	"math"
	"math/bits"
	"time"
)

// The reference unit is the benchmark's ruler: a fixed piece of CPU work
// run before and after every timed operation, so a timing is reported as
// (operation wall / reference wall) x RefMS and a host whose speed wanders
// between runs moves both sides of the ratio together.
//
// FROZEN. Every committed baseline is expressed in reference units;
// changing an array length, a pass count, the arithmetic or RefMS re-bases
// every number ever compared against. TestRefUnitFrozen pins the operation
// count and the output checksum.
//
// Shape: two halves of about equal time, 2 MiB together, so the unit lives
// in L2 and never leaves it — a streaming multiply-add sweep over 1 MiB,
// and unitary radix-2 complex FFT lines over another 1 MiB. README.md has
// the sizing: in this host class's slow spells the compute-bound half
// slows most (1.9x), the streaming half less (1.7x), and the solver's
// steps sit between the two (the 2-rank wire workload follows the FFT
// half, the threaded one the sweep), so either half alone biases some
// workload by 5-10% and the blend keeps all of them within about 3%.
// A ruler that also swept 24 MB arrays moved 40% between processes with
// page placement and was worse than none.
const (
	refSweepLen    = 128 << 10 // float64s: 1 MiB
	refSweepPasses = 22
	refLineLen     = 1024 // complex128s per FFT line, 16 KiB
	refLines       = 64   // 64 x 16 KiB = 1 MiB
	refFFTPasses   = 2

	// refOps is the arithmetic per run: one multiply and one add per sweep
	// element and pass; 5 N log2 N per FFT line plus its 2N scaling.
	refOps = 2*refSweepLen*refSweepPasses +
		refFFTPasses*refLines*(5*refLineLen*10+2*refLineLen)

	// RefMS is the reference unit's wall time on a quiet host of the class
	// the first baseline was taken on (2-vCPU Xeon 2.1 GHz VM, go1.24).
	// Normalised timings are ratio x RefMS, so they read as milliseconds
	// on such a host.
	RefMS = 4.2

	// refDamping is the exponent of the correction: normalised = raw x
	// (RefMS / reading)^refDamping. Measured over quiet, mild and heavy
	// spells of this host class, the four workloads slow by the ruler's
	// slowdown to the power 0.73-1.2, 0.85 in the middle: the ruler is
	// pure in-cache compute, the workloads also wait on memory, sockets
	// and the scheduler. With exponent 1 heavy spells read 5-8% low.
	refDamping = 0.85
)

// refUnit owns the reference arrays; each rank of a multi-rank workload
// runs its own.
type refUnit struct {
	sweep []float64
	lines []complex128 // refLines x refLineLen
	tw    []complex128 // refLineLen/2 twiddles
	rev   []int32      // bit-reversal permutation
}

func newRefUnit() *refUnit {
	u := &refUnit{
		sweep: make([]float64, refSweepLen),
		lines: make([]complex128, refLines*refLineLen),
		tw:    make([]complex128, refLineLen/2),
		rev:   make([]int32, refLineLen),
	}
	for i := range u.sweep {
		u.sweep[i] = 1 + float64(i%7)/8
	}
	for i := range u.lines {
		u.lines[i] = complex(float64(i%13)-6, float64(i%5)-2)
	}
	for k := range u.tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / refLineLen)
		u.tw[k] = complex(c, s)
	}
	shift := 32 - bits.TrailingZeros(refLineLen)
	for i := range u.rev {
		u.rev[i] = int32(bits.Reverse32(uint32(i)) >> shift)
	}
	return u
}

// run executes one reference unit and returns its wall time. It allocates
// nothing. The sweep contracts toward its fixed point 1 and the FFT is
// unitary, so the state stays bounded however often it runs.
func (u *refUnit) run() time.Duration {
	t0 := time.Now()
	a := u.sweep
	for p := 0; p < refSweepPasses; p++ {
		for i := range a {
			a[i] = a[i]*0.999 + 0.001
		}
	}
	scale := complex(1/math.Sqrt(refLineLen), 0)
	for l := 0; l < refFFTPasses*refLines; l++ {
		x := u.lines[(l%refLines)*refLineLen : (l%refLines+1)*refLineLen]
		for i, j := range u.rev {
			if int(j) > i {
				x[i], x[j] = x[j], x[i]
			}
		}
		for half := 1; half < refLineLen; half <<= 1 {
			step := refLineLen / (2 * half)
			for base := 0; base < refLineLen; base += 2 * half {
				for k := 0; k < half; k++ {
					w := u.tw[k*step]
					p, q := x[base+k], x[base+k+half]*w
					x[base+k], x[base+k+half] = p+q, p-q
				}
			}
		}
		for i := range x {
			x[i] *= scale
		}
	}
	return time.Since(t0)
}

// checksum folds the unit's state into one number (freeze test).
func (u *refUnit) checksum() float64 {
	var s float64
	for i, v := range u.sweep {
		s += v * float64(i%3+1)
	}
	for i, v := range u.lines {
		s += (real(v) - imag(v)) * float64(i%5+1)
	}
	return s
}

// Frozen values of the unit (TestRefUnitFrozen).
const (
	frozenRefOps      = 12582912
	frozenRefChecksum = 355025.6144811635
)
