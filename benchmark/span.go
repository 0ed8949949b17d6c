package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The benchmark's own span recorder (choosing-metrics guide, section 4):
// a span around every public call into a layer, kept in memory and written
// when the run ends. Spans inside the program are a later change; what the
// program already measures is read through its telemetry registry and
// labelled program-made.

type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start"` // seconds since the recorder's epoch
	End      float64 `json:"end"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for a root
	Workload string  `json:"workload"`
	Round    int     `json:"round"`
	// RefMS is the mean bracketing reference reading, filled when the
	// bracket closes; 0 for spans outside any bracket.
	RefMS float64 `json:"ref_ms,omitempty"`
}

// spanRecorder is used by one goroutine (rank 0 or the HTTP client). A nil
// recorder records nothing, which is how the untraced pass runs.
type spanRecorder struct {
	epoch    time.Time
	workload string
	round    int
	spans    []span
	stack    []int
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{epoch: time.Now(), workload: workload, spans: make([]span, 0, 4096)}
}

// begin opens a span under the innermost open one.
func (r *spanRecorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Workload: r.workload,
		Round: r.round, Start: time.Since(r.epoch).Seconds()})
	r.stack = append(r.stack, id)
}

// end closes the innermost open span.
func (r *spanRecorder) end() {
	if r == nil {
		return
	}
	n := len(r.stack)
	r.spans[r.stack[n-1]].End = time.Since(r.epoch).Seconds()
	r.stack = r.stack[:n-1]
}

// add records an already finished span under the innermost open one.
func (r *spanRecorder) add(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.begin(name)
	id := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id].Start, r.spans[id].End = start.Sub(r.epoch).Seconds(), end.Sub(r.epoch).Seconds()
}

// mark returns the index the next span will get; stampRef attaches a
// bracket's reference reading to every span recorded since a mark.
func (r *spanRecorder) mark() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

func (r *spanRecorder) stampRef(from int, s sample) {
	if r == nil {
		return
	}
	for i := from; i < len(r.spans); i++ {
		r.spans[i].RefMS = s.refWall * 1e3
	}
}

// selfMS returns, per span name, the normalised self times (span minus the
// part its children cover) of every span that has a reference reading.
func (r *spanRecorder) selfMS() map[string][]float64 {
	out := map[string][]float64{}
	if r == nil {
		return out
	}
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		if s.RefMS == 0 {
			continue
		}
		self := (s.End - s.Start - child[i]) * 1e3
		out[s.Name] = append(out[s.Name], normalise(self, s.RefMS))
	}
	return out
}

// write stores the spans as JSON under dir.
func (r *spanRecorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	data, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		RefMS    float64 `json:"ref_ms_constant"`
		Spans    []span  `json:"spans"`
	}{r.workload, RefMS, r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
