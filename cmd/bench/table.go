package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
)

// Table renders an aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

func newTable(title string, headers ...string) *Table { return &Table{Title: title, Headers: headers} }

// Row appends a row, formatting each cell with %v (floats with %.4g).
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		if v, ok := c.(float64); ok {
			row[i] = fmt.Sprintf("%.4g", v)
		} else {
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table with every column padded to its widest cell and a
// rule under the headers as long as they are.
func (t *Table) Write(w io.Writer) {
	rows := append([][]string{t.Headers}, t.Rows...)
	widths := make([]int, len(t.Headers))
	for _, r := range rows {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	for n, r := range rows {
		padded := make([]string, len(r))
		for i, c := range r {
			padded[i] = c + strings.Repeat(" ", widths[i]-len(c))
		}
		line := strings.Join(padded, "  ")
		sb.WriteString(line + "\n")
		if n == 0 {
			sb.WriteString(strings.Repeat("-", max(4, len(line))) + "\n")
		}
	}
	io.WriteString(w, sb.String())
}

// mallocs reads the runtime's cumulative count of heap objects allocated.
// The count is process-wide, so a difference is exact only around a serial
// region and a whole-process rate around a concurrent one; the read stops
// the world, so it belongs around a timed loop, never inside one.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
