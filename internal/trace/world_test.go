package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"channeldns/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/world.golden from this build")

// worldClocks are the fixed epochs (Unix ns) and clock alignment of the
// three processes of plantedWorld: rank 1's clock runs 300 µs ahead of rank
// 0's, rank 2's 150 µs behind.
var worldClocks = []struct{ epoch, offset, errNs int64 }{
	{1_000_000_000, 0, 0},
	{1_000_400_000, -300_000, 1_500},
	{999_800_000, 150_000, 2_500},
}

// plantedWorld records a three-process world, one Trace a process as a
// -transport=tcp run has them, on fixed epochs: two steps of every phase
// with a transpose exchange and its peer waits, a second exchange in the
// forward-FFT phase, and rank 2 planted as the straggler of every transpose.
func plantedWorld() []*Trace {
	const world, steps, straggler = 3, 2, 2
	base := 100 * time.Microsecond
	traces := make([]*Trace, world)
	for r := range traces {
		tr := New(256)
		tr.epoch = time.Unix(0, worldClocks[r].epoch)
		tr.SetClockSync(worldClocks[r].offset, worldClocks[r].errNs)
		rec := tr.Rank(r)
		ep := tr.Epoch()
		cursor := time.Duration(r) * 7 * time.Microsecond
		for s := 0; s < steps; s++ {
			rec.BeginStep(int64(s))
			t0 := cursor
			for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
				d := base
				if r == straggler && p == telemetry.PhaseTransposeAB {
					d = 3 * base
				}
				rec.SetStage(int(p) % 3)
				switch p {
				case telemetry.PhaseTransposeAB:
					rec.Exchange(telemetry.CommYtoZ, 512, ep.Add(cursor+d/4), ep.Add(cursor+d/2))
					rec.Peer((r+1)%world, 256, ep.Add(cursor+d/4), ep.Add(cursor+d/3))
				case telemetry.PhaseFFTForward:
					rec.Exchange(telemetry.CommZtoX, 1024, ep.Add(cursor+d/5), ep.Add(cursor+d/2))
				}
				rec.TraceSpan(p, ep.Add(cursor), ep.Add(cursor+d))
				cursor += d
			}
			rec.SetStage(-1)
			rec.EndStep(ep.Add(t0), ep.Add(cursor))
		}
		traces[r] = tr
	}
	return traces
}

// traceEvents returns the traceEvents array of a Chrome file as written.
func traceEvents(t *testing.T, file []byte) []byte {
	t.Helper()
	var f struct {
		TraceEvents json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(file, &f); err != nil {
		t.Fatal(err)
	}
	return append(f.TraceEvents, '\n')
}

// TestWorldTracePinned holds the world timeline of plantedWorld — every
// rank restored onto rank 0's clock, the matched exchanges linked by flow
// arrows — to testdata/world.golden, byte for byte. The golden was written
// by the per-rank file merge this restore path replaced.
func TestWorldTracePinned(t *testing.T) {
	w := restoreWorld(t, plantedWorld())
	var buf bytes.Buffer
	if err := w.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("world trace fails validation: %v", err)
	}
	got := traceEvents(t, buf.Bytes())
	path := filepath.Join("testdata", "world.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (generate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("world trace differs from %s (%d bytes, want %d)", path, len(got), len(want))
	}
}
