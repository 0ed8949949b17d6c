// Package perf provides the instrumentation the benchmark tools report
// with: software flop and byte counters standing in for the IBM HPM
// hardware counters of Table 2, allocation sampling, and plain-text table
// rendering.
package perf

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"channeldns/internal/telemetry"
)

// Counters tallies floating-point operations and memory traffic. The DNS
// kernels report their operation counts here so single-core performance can
// be summarized as in Table 2.
type Counters struct {
	mu    sync.Mutex
	Flops int64
	Bytes int64
}

// AddFlops adds floating-point operations.
func (c *Counters) AddFlops(n int64) {
	c.mu.Lock()
	c.Flops += n
	c.mu.Unlock()
}

// AddBytes adds memory traffic in bytes.
func (c *Counters) AddBytes(n int64) {
	c.mu.Lock()
	c.Bytes += n
	c.mu.Unlock()
}

// GFlops returns the rate over elapsed time.
func (c *Counters) GFlops(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Flops) / elapsed.Seconds() / 1e9
}

// BytesPerSec returns the memory traffic rate.
func (c *Counters) BytesPerSec(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Bytes) / elapsed.Seconds()
}

// Table renders aligned text tables for the benchmark tools.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row formatting each value with %v (floats with %.4g).
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", max(4, total-2)) + "\n")
	for _, r := range t.Rows {
		line(r)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteReport writes a benchmark tool's BENCH report to path and says so on
// stdout; a report that fails validation or cannot be written ends the
// process with status 1.
func WriteReport(rep *telemetry.Report, path string) {
	if err := rep.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
