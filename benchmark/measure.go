package main

import (
	"math"
	"os"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time (getrusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with RUSAGE_SELF and a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set (Linux: "5" into /proc/self/clear_refs), so that
// each round's peak can be read on its own and the run can report their
// median instead of one maximum whose height depends on when the collector
// happened to run. Where the kernel refuses, every reading is the peak
// since the process started and the last one is the run's.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// rssPeaks collects one peak per round (or job). window > 0 limits the
// median to the first window entries: the job server keeps every finished
// job's record, so its resident set grows with the number of jobs a run
// had time for, and the metric must not depend on that number.
type rssPeaks struct {
	window     int
	resettable bool
	mb         []float64
}

func (p *rssPeaks) begin() { p.resettable = resetPeakRSS() }
func (p *rssPeaks) end()   { p.mb = append(p.mb, peakRSSMB()) }

// value is the run's peak_rss_mb.
func (p *rssPeaks) value() float64 {
	if len(p.mb) == 0 {
		return peakRSSMB()
	}
	if !p.resettable {
		return p.mb[len(p.mb)-1]
	}
	if p.window > 0 && len(p.mb) > p.window {
		return median(p.mb[:p.window])
	}
	return median(p.mb)
}

// peakRSSMB is the process's high-water resident set since the last reset
// (ru_maxrss is KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stamp is a point in wall and process-CPU time.
type stamp struct {
	t   time.Time
	cpu float64
}

func now() stamp { return stamp{time.Now(), cpuSeconds()} }

// refSample is one run of the reference unit: its wall time and the
// process CPU it cost per concurrent runner.
type refSample struct{ wall, cpu float64 }

// sample is one timed operation bracketed by two reference runs.
type sample struct {
	wall, cpu       float64 // seconds
	refWall, refCPU float64 // mean of the two bracketing reference runs
}

func newSample(t0, t1 stamp, r0, r1 refSample) sample {
	return sample{
		wall: t1.t.Sub(t0.t).Seconds(), cpu: t1.cpu - t0.cpu,
		refWall: (r0.wall + r1.wall) / 2, refCPU: (r0.cpu + r1.cpu) / 2,
	}
}

// normalise turns a raw duration into what it would read on a quiet host
// of the baseline's class, given the reference unit's reading (same unit
// as RefMS scaled: pass milliseconds). The exponent is refDamping, see
// ref.go.
func normalise(raw, refMS float64) float64 { return raw * math.Pow(RefMS/refMS, refDamping) }

// ms is the operation's wall time in reference-normalised milliseconds.
func (s sample) ms() float64 { return normalise(s.wall*1e3, s.refWall*1e3) }

// cpuMS is the operation's process CPU, normalised by the reference
// unit's own CPU time.
func (s sample) cpuMS() float64 { return normalise(s.cpu*1e3, s.refCPU*1e3) }

// each maps samples through f.
func each(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func rawMS(ss []sample) []float64     { return each(ss, func(s sample) float64 { return s.wall * 1e3 }) }
func normMS(ss []sample) []float64    { return each(ss, sample.ms) }
func normCPUMS(ss []sample) []float64 { return each(ss, sample.cpuMS) }

// ruler runs the reference unit for one rank and keeps every reading, so
// the run can report how far the host wandered (host.ref_spread).
type ruler struct {
	unit    *refUnit
	runners int       // ranks running their unit concurrently
	wallMS  []float64 // every reading, for the spread
	total   float64   // seconds spent in reference runs
}

func newRuler(runners int) *ruler {
	return &ruler{unit: newRefUnit(), runners: runners}
}

// read runs the reference unit once. With several ranks each runs its own
// between barriers, so the process CPU of the interval is divided by the
// number of runners.
func (r *ruler) read() refSample {
	c0 := cpuSeconds()
	d := r.unit.run().Seconds()
	c1 := cpuSeconds()
	r.wallMS = append(r.wallMS, d*1e3)
	r.total += d
	return refSample{wall: d, cpu: (c1 - c0) / float64(r.runners)}
}

// readMean runs the reference unit n times and returns the mean reading.
func (r *ruler) readMean(n int) refSample {
	var sum refSample
	for i := 0; i < n; i++ {
		s := r.read()
		sum.wall += s.wall
		sum.cpu += s.cpu
	}
	return refSample{wall: sum.wall / float64(n), cpu: sum.cpu / float64(n)}
}

// spread is p90/p10 of the reference readings over the run.
func (r *ruler) spread() float64 {
	return quantile(r.wallMS, 0.9) / quantile(r.wallMS, 0.1)
}

// scale turns a raw duration measured during this run into the normalised
// one, for one-off timings that have no bracket of their own.
func (r *ruler) scale() float64 { return normalise(1, median(r.wallMS)) }

// meanSince is the mean reading, in seconds, since the from-th.
func (r *ruler) meanSince(from int) float64 { return mean(r.wallMS[from:]) / 1e3 }
