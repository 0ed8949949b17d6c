package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"channeldns/internal/telemetry"
)

// The files under testdata were captured from cmd/bench-{solver,node,fft,
// timestep,comm} and examples/scaling at the commit before they were folded
// into this program; the tests hold cmd/bench to the same bytes and the same
// report shapes.

// goldens lists every deterministic output of the tool: the model-vs-paper
// half of each table, the Figure 4 pattern, the campaign plan and the
// -schedule listings at the `make bench-smoke` sizes.
var goldens = []struct {
	file string
	args []string
}{
	{"table2.golden", []string{"-table", "2"}},
	{"table3.golden", []string{"-table", "3"}},
	{"table4.golden", []string{"-table", "4"}},
	{"table5.golden", []string{"-table", "5"}},
	{"table6.golden", []string{"-table", "6"}},
	{"table7_8.golden", []string{"-table", "7"}},
	{"table7_8.golden", []string{"-table", "8"}},
	{"table9.golden", []string{"-table", "9"}},
	{"table10.golden", []string{"-table", "10"}},
	{"table11.golden", []string{"-table", "11"}},
	{"fig4.golden", []string{"-table", "fig4"}},
	{"campaign.golden", []string{"-table", "campaign"}},
	{"table5.schedule.golden", []string{"-table", "5", "-schedule"}},
	{"table6.schedule.golden", []string{"-table", "6", "-schedule"}},
	{"table9.schedule.golden", []string{"-table", "9", "-schedule", "-nx", "16", "-ny", "17", "-nz", "16"}},
	{"table9.schedule.isotropic.golden", []string{"-table", "9", "-schedule", "-workload", "isotropic", "-nx", "16", "-ny", "16", "-nz", "16"}},
	{"table9.schedule.scalar.golden", []string{"-table", "9", "-schedule", "-workload", "scalar", "-nx", "16", "-ny", "17", "-nz", "16"}},
}

// modelHalf drops the block measured on this machine from the output of
// Tables 2-4, which print it between the title and the model half.
func modelHalf(s string) string {
	i, j := strings.Index(s, "\n-- measured"), strings.Index(s, "\n-- Mira model")
	if i < 0 || j < i {
		return s
	}
	return s[:i] + s[j:]
}

func runTool(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("bench %s: exit %d\n%s", strings.Join(args, " "), code, errOut.String())
	}
	return out.String()
}

func TestGoldenOutput(t *testing.T) {
	for _, g := range goldens {
		t.Run(strings.Join(g.args[1:], ""), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := modelHalf(runTool(t, g.args...)); got != string(want) {
				t.Errorf("bench %s differs from %s\n--- got\n%s--- want\n%s",
					strings.Join(g.args, " "), g.file, got, want)
			}
		})
	}
}

// TestReportShapes writes every report `make bench-smoke` asks the tool for
// (plus the chan/tcp pair), validates each as bench-validate does, and
// compares its table name, config keys, metric keys and optional blocks
// with testdata/reports.golden.
func TestReportShapes(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	small := []string{"-nx", "16", "-ny", "17", "-nz", "16", "-steps", "2"}
	runTool(t, "-table", "1", "-n", "128", "-reps", "1", "-json", at("BENCH_table1.json"))
	runTool(t, "-table", "2", "-json", at("BENCH_table2_3_4.json"))
	runTool(t, "-table", "5", "-json", at("BENCH_table5.json"))
	runTool(t, "-table", "5", "-transport", "both", "-json", at("BENCH_table5_ab.json"))
	runTool(t, "-table", "6", "-json", at("BENCH_table6.json"))
	runTool(t, append([]string{"-table", "9", "-json", at("BENCH_table9.json"), "-trace", at("table9.trace.json")}, small...)...)

	paths, err := filepath.Glob(at("BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var got strings.Builder
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := telemetry.ValidateJSON(raw)
		if err == nil {
			err = rep.CheckScheduleConsistency()
		}
		if err == nil {
			err = rep.CheckCheckpointIO()
		}
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
			continue
		}
		var blocks []string
		if rep.Schedule != nil {
			blocks = append(blocks, "schedule")
		}
		if rep.Trace != nil {
			blocks = append(blocks, "trace")
		}
		if rep.AllocsPerStep > 0 {
			blocks = append(blocks, "allocs_per_step")
		}
		fmt.Fprintf(&got, "%s: %s\n  config: %s\n  metrics: %s\n  blocks: %s\n", filepath.Base(p), rep.Table,
			strings.Join(keys(rep.Config), " "), strings.Join(keys(rep.Metrics), " "), strings.Join(blocks, " "))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "reports.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("report shapes differ from testdata/reports.golden\n--- got\n%s--- want\n%s", got.String(), want)
	}
	if raw, err := os.ReadFile(at("table9.trace.json")); err != nil || !bytes.Contains(raw, []byte("traceEvents")) {
		t.Errorf("table9.trace.json: not a Chrome trace (err %v)", err)
	}
}

func keys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
