package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// isTmpfs reports whether dir sits on a tmpfs. The run store has to stay
// inside the checkout, so where that is a disk, checkpoint fsyncs are part
// of restart_s and a CPU reference cannot normalise them; the run prints
// which case it is.
func isTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

// llcBytes is the largest cache the kernel reports for cpu0 (0 if unknown).
func llcBytes() float64 {
	var best float64
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := 1.0
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// triadArrayBytes is the size of each of the three triad arrays. The HPC
// rule wants at least four times the last-level cache; this host class
// reports a 260 MiB shared L3, which would need 3 GiB of arrays and
// seconds per sweep, so the probe states its size and the roofline
// fraction leaves the bandwidth side out unless the rule holds.
const triadArrayBytes = 48 << 20

// triadGBps is a STREAM-like a = b + s*c over arrays of triadArrayBytes:
// best of reps sweeps, counting the three arrays' bytes.
func triadGBps(reps int) float64 {
	n := triadArrayBytes / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i%9), float64(i%4)
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if gb := 3 * float64(triadArrayBytes) / time.Since(t0).Seconds() / 1e9; gb > best {
			best = gb
		}
	}
	sink = a[n/2]
	return best
}

// fmaGFlops is the scalar multiply-add rate of one core over eight
// independent register chains: the compute ceiling Go code sees here.
func fmaGFlops() float64 {
	const iters = 4 << 20
	best := 0.0
	for r := 0; r < 3; r++ {
		x0, x1, x2, x3, x4, x5, x6, x7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x0 = x0*0.999 + 0.001
			x1 = x1*0.999 + 0.001
			x2 = x2*0.999 + 0.001
			x3 = x3*0.999 + 0.001
			x4 = x4*0.999 + 0.001
			x5 = x5*0.999 + 0.001
			x6 = x6*0.999 + 0.001
			x7 = x7*0.999 + 0.001
		}
		sink = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
		if gf := 16 * iters / time.Since(t0).Seconds() / 1e9; gf > best {
			best = gf
		}
	}
	return best
}

// sink keeps measured results alive so the compiler cannot drop the work.
var sink float64
