package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced pass samples the process with the runtime's CPU profiler
// while the rounds run and attributes every sample to the layer whose code
// was executing: the innermost frame that belongs to a package under
// channeldns/internal names the layer (so a memmove called from pencil
// counts as pencil). That is a layer's busy share as observed from outside
// the program, and it is how the pass shows, rather than asserts, that
// isotropic-threads2-48 executes no banded or bspline code.

// profiledLayers are the layers that get a cpu.<layer>_frac metric; other
// internal packages fall under "other".
var profiledLayers = []string{"core", "fft", "banded", "bspline", "pencil", "mpi", "par",
	"ckpt", "server", "telemetry", "trace"}

// cpuProfile is a running profile.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns each bucket's share of the samples
// that were not the benchmark's own code (reference unit, client, checks):
// one entry per profiled layer plus "runtime" (collector, scheduler,
// network poller with no layer above them) and "other".
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	counts, err := attribute(raw)
	if err != nil {
		return nil, err
	}
	var total float64
	for bucket, n := range counts {
		if bucket != "bench" {
			total += n
		}
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, nil
	}
	known := map[string]bool{"runtime": true}
	for _, l := range profiledLayers {
		known[l] = true
	}
	for bucket, n := range counts {
		switch {
		case bucket == "bench":
		case known[bucket]:
			shares[bucket] += n / total
		default:
			shares["other"] += n / total
		}
	}
	return shares, nil
}

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	value uint64
	data  []byte
}

// pbFields decodes the top-level fields of one message.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, fmt.Errorf("profile: truncated field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return nil, fmt.Errorf("profile: truncated varint")
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("profile: truncated bytes field")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated returns a repeated integer field's values, packed or not.
func pbRepeated(f pbField) []uint64 {
	if f.data == nil {
		return []uint64{f.value}
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			break
		}
		out, b = append(out, v), b[n:]
	}
	return out
}

// attribute decodes a pprof profile.proto (Profile: sample = 2,
// location = 4, function = 5, string_table = 6) and returns sample counts
// per bucket.
func attribute(raw []byte) (map[string]float64, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	var samples [][]byte
	for _, f := range top {
		switch f.num {
		case 2:
			samples = append(samples, f.data)
		case 4: // Location: id = 1, line = 4 {function_id = 1}
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.value
				case 4:
					line, err := pbFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.num == 1 {
							fns = append(fns, x.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = ff.value
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	counts := map[string]float64{}
	for _, s := range samples { // Sample: location_id = 1, value = 2
		fs, err := pbFields(s)
		if err != nil {
			return nil, err
		}
		var locs, values []uint64
		for _, f := range fs {
			switch f.num {
			case 1:
				locs = append(locs, pbRepeated(f)...)
			case 2:
				values = append(values, pbRepeated(f)...)
			}
		}
		if len(values) == 0 {
			continue
		}
		var stack []string // innermost first
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		counts[bucketOf(stack)] += float64(values[0])
	}
	return counts, nil
}

// bucketOf names the layer a stack (innermost frame first) was busy in.
func bucketOf(stack []string) string {
	const internal = "channeldns/internal/"
	allRuntime := true
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internal); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/") {
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "other"
}
