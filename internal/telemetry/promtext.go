package telemetry

import (
	"fmt"
	"io"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format PromWriter emits.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter emits Prometheus text exposition: a family header, then that
// family's samples. It is the one encoder behind every /metrics endpoint of
// the repository (the world dashboard here, dnsserve's job gauges).
type PromWriter struct {
	w    io.Writer
	name string // family in progress
}

// NewPromWriter writes to w; write errors are the ResponseWriter's to report.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Family starts a metric family of the given type ("gauge", "counter").
func (p *PromWriter) Family(name, help, typ string) {
	p.name = name
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of the family in progress. labels are name, value
// pairs; value prints with %v (%d for integers, %g for floats).
func (p *PromWriter) Sample(value any, labels ...string) {
	io.WriteString(p.w, p.name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(p.w, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 1 {
		io.WriteString(p.w, "}")
	}
	fmt.Fprintf(p.w, " %v\n", value)
}
