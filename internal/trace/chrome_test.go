package trace

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"channeldns/internal/telemetry"
)

// syntheticTrace builds a two-rank trace with phase, exchange, peer and
// step events laid out deterministically.
func syntheticTrace() *Trace {
	tr := New(64)
	for rank := 0; rank < 2; rank++ {
		r := tr.Rank(rank)
		base := time.Duration(rank) * time.Millisecond
		r.BeginStep(0)
		r.SetStage(0)
		r.TraceSpan(telemetry.PhaseNonlinear, at(tr, base), at(tr, base+200*time.Microsecond))
		r.TraceSpan(telemetry.PhaseTransposeAB, at(tr, base+200*time.Microsecond), at(tr, base+300*time.Microsecond))
		r.Exchange(telemetry.CommYtoZ, 2048, at(tr, base+210*time.Microsecond), at(tr, base+280*time.Microsecond))
		r.Peer(1-rank, 1024, at(tr, base+220*time.Microsecond), at(tr, base+270*time.Microsecond))
		r.SetStage(-1)
		r.EndStep(at(tr, base), at(tr, base+400*time.Microsecond))
	}
	return tr
}

func TestWriteChromeValidates(t *testing.T) {
	tr := syntheticTrace()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	// Five slices a rank, and the ranks' one matched exchange linked by an
	// arrow: its start on one track, its finish on the other.
	if n != 12 {
		t.Errorf("validated %d events, want 12 (5 per rank and one flow arrow's two ends)", n)
	}
	// Structural spot checks on the decoded form.
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	tids := map[float64]bool{}
	names := map[string]bool{}
	meta := 0
	for _, ev := range f.TraceEvents {
		tids[ev["tid"].(float64)] = true
		if ev["ph"] == "M" {
			meta++
			continue
		}
		names[ev["name"].(string)] = true
	}
	if len(tids) != 2 || meta != 2 {
		t.Errorf("want one track + one metadata record per rank, got tids=%v meta=%d", tids, meta)
	}
	for _, want := range []string{"nonlinear", "transpose", "exchange YtoZ", "peer wait", "step"} {
		if !names[want] {
			t.Errorf("event name %q missing from export (have %v)", want, names)
		}
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"no events":      `{"traceEvents":[],"displayTimeUnit":"ms"}`,
		"empty name":     `{"traceEvents":[{"name":"","ph":"X","ts":1,"pid":0,"tid":0}]}`,
		"negative dur":   `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-2,"pid":0,"tid":0}]}`,
		"nonmonotone ts": `{"traceEvents":[{"name":"a","ph":"X","ts":5,"pid":0,"tid":0},{"name":"b","ph":"X","ts":4,"pid":0,"tid":0}]}`,
	}
	for name, raw := range cases {
		if _, err := ValidateChrome([]byte(raw)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
	// Monotonicity is per track: interleaved tracks with their own order
	// must pass.
	ok := `{"traceEvents":[
		{"name":"a","ph":"X","ts":5,"pid":0,"tid":0},
		{"name":"b","ph":"X","ts":1,"pid":0,"tid":1},
		{"name":"c","ph":"X","ts":6,"pid":0,"tid":0}]}`
	if _, err := ValidateChrome([]byte(ok)); err != nil {
		t.Errorf("per-track monotone file rejected: %v", err)
	}
}

func TestTraceHandler(t *testing.T) {
	tr := syntheticTrace()
	rr := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/trace", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	if _, err := ValidateChrome(rr.Body.Bytes()); err != nil {
		t.Errorf("/trace body does not validate: %v", err)
	}
}

func TestWriteChromeEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := New(8).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	// An empty trace is syntactically valid Chrome JSON but carries no
	// events, which ValidateChrome treats as a failure — bench-smoke runs
	// must produce events.
	if _, err := ValidateChrome(buf.Bytes()); err == nil {
		t.Error("empty trace validated, want 'no events' error")
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("empty trace is not valid JSON")
	}
}

// TestValidateChromeFlowIntegrity pins the validator's flow rules on
// hand-built files: accept a well-formed s→t→f chain, reject missing ids,
// duplicate starts, missing finishes, and steps before the start.
func TestValidateChromeFlowIntegrity(t *testing.T) {
	file := func(events string) []byte {
		return []byte(`{"traceEvents": [` + events + `], "displayTimeUnit": "ms"}`)
	}
	x := `{"name": "step", "ph": "X", "ts": 1, "dur": 5, "pid": 0, "tid": 0}`
	cases := []struct {
		name   string
		events string
		ok     bool
	}{
		{"chain", x + `,
			{"name": "f1", "ph": "s", "ts": 2, "pid": 0, "tid": 0, "id": "a"},
			{"name": "f1", "ph": "t", "ts": 3, "pid": 0, "tid": 1, "id": "a"},
			{"name": "f1", "ph": "f", "bp": "e", "ts": 4, "pid": 0, "tid": 2, "id": "a"}`, true},
		{"no id", x + `, {"name": "f1", "ph": "s", "ts": 2, "pid": 0, "tid": 0}`, false},
		{"two starts", x + `,
			{"name": "f1", "ph": "s", "ts": 2, "pid": 0, "tid": 0, "id": "a"},
			{"name": "f1", "ph": "s", "ts": 3, "pid": 0, "tid": 1, "id": "a"},
			{"name": "f1", "ph": "f", "ts": 4, "pid": 0, "tid": 2, "id": "a"}`, false},
		{"no finish", x + `, {"name": "f1", "ph": "s", "ts": 2, "pid": 0, "tid": 0, "id": "a"}`, false},
		{"step before start", x + `,
			{"name": "f1", "ph": "t", "ts": 2, "pid": 0, "tid": 1, "id": "a"},
			{"name": "f1", "ph": "s", "ts": 3, "pid": 0, "tid": 0, "id": "a"},
			{"name": "f1", "ph": "f", "ts": 4, "pid": 0, "tid": 2, "id": "a"}`, false},
	}
	for _, tc := range cases {
		_, err := ValidateChrome(file(tc.events))
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
