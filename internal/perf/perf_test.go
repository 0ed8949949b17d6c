package perf

import (
	"strings"
	"testing"
	"time"
)

func TestCountersRates(t *testing.T) {
	var c Counters
	c.AddFlops(2e9)
	c.AddBytes(4e9)
	if g := c.GFlops(time.Second); g != 2 {
		t.Errorf("GFlops %g", g)
	}
	if b := c.BytesPerSec(2 * time.Second); b != 2e9 {
		t.Errorf("bytes/s %g", b)
	}
	if c.GFlops(0) != 0 || c.BytesPerSec(-time.Second) != 0 {
		t.Error("zero elapsed must not divide")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "Demo", Headers: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 3.14159)
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Demo", "name", "alpha", "3.142"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines", len(lines))
	}
}
