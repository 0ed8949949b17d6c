package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// runAA is the A/A evidence: every workload run 2 x repeats times on this
// same binary, one process per run as the driver does, in ABBA order; the
// two sides' medians must agree within each end-to-end metric's bound.
func runAA(o runOpts, repeats int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type side struct {
		vals   map[string][]float64
		spread []float64
	}
	failed := false
	fmt.Printf("%d runs per side; a side's value is the median of its runs, its spread the distance between their quartiles over that median\n", repeats)
	fmt.Printf("%-22s %-16s %10s %10s %7s %6s %9s %9s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "spread A", "spread B", "ref_spread A / B")
	for _, wd := range workloadDecls {
		sides := [2]side{{vals: map[string][]float64{}}, {vals: map[string][]float64{}}}
		for i := 0; i < 2*repeats; i++ {
			s := []int{0, 1, 1, 0}[i%4]
			args := []string{"-root", o.root, "-workload", wd.Name, "-seed", fmt.Sprint(o.seed + int64(i)),
				"-seconds", fmt.Sprint(o.seconds), "-trace", "0"}
			if o.quick {
				args = append(args, "-quick")
			}
			var stderr bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stderr = &stderr
			raw, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %v\n%s%s", wd.Name, i, err, raw, stderr.String())
			}
			var last string
			sc := bufio.NewScanner(bytes.NewReader(raw))
			for sc.Scan() {
				last = sc.Text()
				var spread float64
				if _, err := fmt.Sscanf(last, "host.ref_spread %f", &spread); err == nil {
					sides[s].spread = append(sides[s].spread, spread)
				}
			}
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				return fmt.Errorf("%s run %d: last line %q: %v", wd.Name, i, last, err)
			}
			for name, v := range res.Metrics {
				sides[s].vals[name] = append(sides[s].vals[name], v.Value)
			}
		}
		for _, d := range endToEndDecls {
			a, b := median(sides[0].vals[d.Name]), median(sides[1].vals[d.Name])
			verdict := ""
			if b/a-1 > d.Bound || a/b-1 > d.Bound {
				verdict, failed = "  DIFFER", true
			}
			fmt.Printf("%-22s %-16s %10.5g %10.5g %7.4f %6.2f %8.1f%% %8.1f%%  %.2f / %.2f%s\n", wd.Name, d.Name, a, b, b/a, d.Bound,
				100*iqrSpread(sides[0].vals[d.Name]), 100*iqrSpread(sides[1].vals[d.Name]),
				median(sides[0].spread), median(sides[1].spread), verdict)
		}
	}
	if failed {
		return fmt.Errorf("A/A: two sets of runs of the same binary differ by more than a bound (see the DIFFER rows)")
	}
	return nil
}
