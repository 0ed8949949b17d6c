package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// goldenEntry pins a workload's trajectory at seed 1: the total energy at
// the end of a round (every round walks the same steps) and, for the
// service, the final status line of a job. Trajectories are bit-identical
// across transports, thread counts and restarts, so the comparison is to
// 1e-12 relative.
type goldenEntry struct {
	Steps  int     `json:"steps"`
	Energy float64 `json:"energy"`
	Line   string  `json:"line,omitempty"`
}

const goldenFile = "benchmark/golden.json"

func loadGolden(root string) (map[string]goldenEntry, error) {
	raw, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, err
	}
	g := map[string]goldenEntry{}
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return g, nil
}

// checkGolden compares a seed-1 run with the committed trajectory. Other
// seeds are held to the invariants the workloads check themselves.
func checkGolden(g map[string]goldenEntry, o runOpts, rep *report) {
	if o.seed != 1 {
		return
	}
	want, ok := g[o.workload]
	if !ok {
		rep.problems = append(rep.problems, "no golden entry for "+o.workload)
		return
	}
	if rel := math.Abs(rep.energy-want.Energy) / math.Abs(want.Energy); !(rel <= 1e-12) {
		rep.problems = append(rep.problems,
			fmt.Sprintf("energy %.17g differs from golden %.17g (rel %.2e)", rep.energy, want.Energy, rel))
	}
	if want.Line != "" && rep.line != want.Line {
		rep.problems = append(rep.problems, fmt.Sprintf("final status line %q, golden %q", rep.line, want.Line))
	}
}

// regenerateGolden runs every workload at seed 1 (short) and rewrites
// golden.json.
func regenerateGolden(o runOpts) error {
	g := map[string]goldenEntry{}
	for _, d := range workloadDecls {
		tmp, err := os.MkdirTemp(mkOutDir(o.root), "golden-*")
		if err != nil {
			return err
		}
		ro := runOpts{workload: d.Name, seed: 1, seconds: 1, root: o.root}
		rep, err := runWorkload(ro, tmp)
		os.RemoveAll(tmp)
		if err != nil {
			return err
		}
		if len(rep.problems) > 0 {
			return fmt.Errorf("%s: %v", d.Name, rep.problems)
		}
		g[d.Name] = goldenEntry{Steps: goldenSteps(d.Name), Energy: rep.energy, Line: rep.line}
		fmt.Printf("%s: steps %d energy %.17g\n", d.Name, goldenSteps(d.Name), rep.energy)
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.root, goldenFile), append(raw, '\n'), 0o644)
}

// goldenSteps is the step count the golden energy is taken at.
func goldenSteps(workload string) int {
	if workload == wlServe {
		return serveSteps
	}
	return 2 + solverSpecs[workload].warm
}
