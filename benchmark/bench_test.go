package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesDeclarations keeps BENCHMARK.json and decl.go in
// step and inside the contract's limits.
func TestManifestMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	// 4 + 22 x workloads runs, set-up and two builds within 3420 s.
	if runs := 4 + 22*len(m.Workloads); float64(runs)*(float64(m.RunSeconds)+6)+120 > 3420 {
		t.Errorf("%d runs of %d s (+6 s overhead each, +120 s of builds) exceed 3420 s", runs, m.RunSeconds)
	}
	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d strings", len(m.Command))
	}
	for _, arg := range m.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") || len(arg) > 200 {
			t.Errorf("command argument %q leaves the repository or is too long", arg)
		}
	}
	if len(m.Workloads) != len(workloadDecls) || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Fatalf("%d workloads in the manifest, %d declared", len(m.Workloads), len(workloadDecls))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the contract's charset", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloadDecls[i].Name || w.Why != workloadDecls[i].Why {
			t.Errorf("workload %d: manifest %q, declared %q", i, w.Name, workloadDecls[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDecl, limit int, bounded bool) {
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: %d metrics in the manifest, %d declared, limit %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: manifest %+v, declared %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q outside the contract's charset", g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, declared %v, must be in (0, 0.25]", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEndDecls, 16, true)
	compare("per_layer", m.PerLayer, perLayerDecls, 128, false)
	setup := endToEndDecls[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", setup)
	}
	for _, d := range endToEndDecls {
		if d.Bound > setup.Bound {
			t.Errorf("%s has bound %v above setup_s's %v; set-up takes the largest", d.Name, d.Bound, setup.Bound)
		}
	}
}

// TestRefUnitFrozen pins the reference unit: every baseline is expressed
// in it, so its operation count and its output may never change.
func TestRefUnitFrozen(t *testing.T) {
	if refOps != frozenRefOps {
		t.Errorf("reference unit performs %d operations, frozen at %d", refOps, int64(frozenRefOps))
	}
	u := newRefUnit()
	for i := 0; i < 3; i++ {
		u.run()
	}
	got := u.checksum()
	// Exact on amd64; architectures that fuse multiply-adds round
	// differently in the last bits.
	tol := 0.0
	if runtime.GOARCH != "amd64" {
		tol = 1e-9
	}
	if math.Abs(got-frozenRefChecksum) > tol*math.Abs(frozenRefChecksum) {
		t.Errorf("reference unit checksum %.17g, frozen at %.17g", got, frozenRefChecksum)
	}
	if allocs := testing.AllocsPerRun(3, func() { u.run() }); allocs != 0 {
		t.Errorf("reference unit allocates %v objects per run", allocs)
	}
}

func TestStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqrSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if v, p := tail(xs); v != 5.5 || p != 50 {
		t.Errorf("tail of 10 samples = %v at p%v, want the median at p50", v, p)
	}
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i + 1)
	}
	if v, p := tail(long); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, p)
	}
}

// TestQuickSmoke runs every workload at the smoke size, untraced and
// traced, and checks that each pass emits exactly the declared metrics,
// that the outputs are correct, that no goroutine is left (runOne counts
// a leak as a failure) and that the traced pass shows layer isolation.
func TestQuickSmoke(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, wd := range workloadDecls {
		for _, traced := range []bool{false, true} {
			o := runOpts{workload: wd.Name, seed: 3, seconds: 1, traced: traced, quick: true, root: ".."}
			res, err := runOne(o, devnull)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wd.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wd.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			decl := endToEndDecls
			if traced {
				decl = perLayerDecls
			}
			if len(res.Metrics) != len(decl) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", wd.Name, traced, len(res.Metrics), len(decl))
			}
			for _, d := range decl {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", wd.Name, traced, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s in %q, declared %q", wd.Name, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", wd.Name, d.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", wd.Name, d.Name, v.Value)
				}
			}
			if traced {
				checkIsolation(t, wd.Name, res.Metrics)
				checkSpanFile(t, wd.Name)
			}
		}
	}
	if left, _ := filepath.Glob("../" + outDir + "/run-*"); len(left) > 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}

// checkIsolation: a layer's metrics are non-zero exactly on the workloads
// that use the layer.
func checkIsolation(t *testing.T, workload string, m map[string]metricValue) {
	t.Helper()
	nonzero := func(prefix string) (names []string) {
		for name, v := range m {
			if strings.HasPrefix(name, prefix) && v.Value != 0 {
				names = append(names, name)
			}
		}
		return names
	}
	expect := func(prefix string, used bool) {
		got := nonzero(prefix)
		if used && len(got) == 0 {
			t.Errorf("%s: no %s* metric is non-zero, but the workload uses the layer", workload, prefix)
		}
		if !used && len(got) > 0 {
			t.Errorf("%s: %v non-zero, but the workload does not use the layer", workload, got)
		}
	}
	expect("banded.", workload != wlIsotropic)
	expect("bspline.", workload != wlIsotropic)
	expect("mpi.", workload == wlScalar)
	expect("server.", workload == wlServe)
	expect("par.", workload == wlIsotropic)
	for _, prefix := range []string{"fft.", "pencil.", "parfft.", "core.", "ckpt.", "schedule.", "host."} {
		expect(prefix, true)
	}
	if workload == wlScalar {
		if got := m["schedule.wire_over_model"].Value; got != 1 {
			t.Errorf("schedule.wire_over_model = %v: measured wire payload is not the schedule's", got)
		}
	}
}

// checkSpanFile: the traced pass wrote parent-linked spans.
func checkSpanFile(t *testing.T, workload string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", outDir, "trace-"+workload+".json"))
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Errorf("%s: %v", workload, err)
		return
	}
	children := 0
	for i, s := range doc.Spans {
		if s.ID != i || s.Parent >= i || s.End < s.Start || s.Workload != workload {
			t.Errorf("%s: span %d malformed: %+v", workload, i, s)
			return
		}
		if s.Parent >= 0 {
			children++
			p := doc.Spans[s.Parent]
			if s.Start < p.Start-1e-9 || s.End > p.End+1e-9 {
				t.Errorf("%s: span %d (%s) not inside its parent %s", workload, i, s.Name, p.Name)
				return
			}
		}
	}
	if children == 0 {
		t.Errorf("%s: %d spans, none with a parent", workload, len(doc.Spans))
	}
}
