// Command benchmark is the repository's benchmark (BENCHMARK.json): one
// invocation runs one workload in one process and prints, as the last line
// of standard output, one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// outDir holds everything a run writes: the run store and checkpoints
// (removed on every exit path) and the traced pass's span files.
const outDir = "benchmark/out"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOpts is one invocation's settings.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	quick    bool
	root     string // repository root (where BENCHMARK.json lives)
}

func main() {
	var o runOpts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the initial perturbation")
	flag.Float64Var(&o.seconds, "seconds", 25, "seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke size: 16x17x16 everywhere, one round")
	flag.StringVar(&o.root, "root", ".", "repository root")
	aa := flag.Bool("aa", false, "run every workload twice in ABBA order and compare (A/A evidence)")
	repeats := flag.Int("repeats", 3, "with -aa: runs per side")
	writeGolden := flag.Bool("write-golden", false, "regenerate benchmark/golden.json at seed 1")
	flag.Parse()
	o.traced = trace != 0

	var err error
	switch {
	case *writeGolden:
		err = regenerateGolden(o)
	case *aa:
		err = runAA(o, *repeats)
	default:
		var res *result
		res, err = runOne(o, os.Stdout)
		if err == nil {
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
			if !res.Correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// report is what a workload's run hands back for printing.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	energy    float64 // compared with golden.json at seed 1
	line      string  // serve-jobs-16: the jobs' final status line
	notes     []string
	ruler     *ruler // the run's reference readings
}

// runOne runs one workload and assembles its result; human-readable
// lines go to w.
func runOne(o runOpts, w *os.File) (*result, error) {
	decl := endToEndDecls
	if o.traced {
		decl = perLayerDecls
	}
	known := false
	for _, d := range workloadDecls {
		known = known || d.Name == o.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (see BENCHMARK.json)", o.workload)
	}
	golden, err := loadGolden(o.root)
	if err != nil {
		return nil, err
	}
	// The run store and checkpoints live inside the checkout and are
	// removed on every exit path: on return, on a signal, and (for a run
	// that crashed) by the next run.
	removeStale(mkOutDir(o.root))
	tmp, err := os.MkdirTemp(mkOutDir(o.root), "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(tmp)
			os.Exit(130)
		case <-done:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(done)
	}()

	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  quick %v\n", o.workload, o.seed, o.seconds, o.traced, o.quick)
	fmt.Fprintf(w, "host: GOMAXPROCS %d  NumCPU %d  %s/%s %s  store %s  tmpfs: %v\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version(), tmp, isTmpfs(tmp))

	before := runtime.NumGoroutine()
	rep, err := runWorkload(o, tmp)
	if err != nil {
		return nil, err
	}
	if leaked := waitGoroutines(before); leaked > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d goroutines left after the workload", leaked))
		rep.failed++
	}
	if !o.quick {
		checkGolden(golden, o, rep)
	}

	res := &result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range decl {
		v, ok := rep.metrics[d.Name]
		if !ok && !o.traced {
			return nil, fmt.Errorf("workload %s did not produce %s", o.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Correct = len(rep.problems) == 0 && rep.failed == 0
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range decl {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	// Noise is visible, not silent: a reader of a rejected comparison can
	// tell host weather from regression.
	spread := rep.ruler.spread()
	fmt.Fprintf(w, "host.ref_spread %.3f  host.ref_unit_ms %.3f (RefMS %.2f, %d readings)  \"noisy\": %v\n",
		spread, median(rep.ruler.wallMS), RefMS, len(rep.ruler.wallMS), spread > 1.5)
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", rep.attempted, rep.failed, res.Correct)
	for _, p := range rep.problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	return res, nil
}

// runWorkload dispatches on the kind of workload; dir holds its files.
func runWorkload(o runOpts, dir string) (*report, error) {
	if o.workload == wlServe {
		return serveWorkload(o, dir)
	}
	return solverWorkload(o, dir)
}

func mkOutDir(root string) string {
	dir := filepath.Join(root, outDir)
	// MkdirTemp reports the error if this failed.
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// removeStale deletes run directories a crashed run left behind.
func removeStale(dir string) {
	old, _ := filepath.Glob(filepath.Join(dir, "run-*"))
	for _, d := range old {
		if st, err := os.Stat(d); err == nil && time.Since(st.ModTime()) > 10*time.Minute {
			os.RemoveAll(d)
		}
	}
}

// waitGoroutines gives finished goroutines a moment to exit and returns
// how many more than before are still there.
func waitGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
