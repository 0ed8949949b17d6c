package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"image/png"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/runs.golden from this build")

// TestMain lets the test binary stand in for dns: with DNS_TEST_ARGS set it
// runs main on those arguments and exits, so the tests exec the command
// line path itself, flag parsing and log.Fatal exits included.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("DNS_TEST_ARGS"); ok {
		os.Args = append([]string{"dns"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runs are the four dns lines of `make bench-smoke` plus one that sets
// every run flag whose zero or default a front end could resolve
// differently, at two steps each.
var runs = []string{
	"-nx 16 -ny 17 -nz 16 -steps 2 -pa 2 -pb 2 -trace {dir}/dns.trace.json",
	"-workload isotropic -nx 16 -ny 16 -nz 16 -steps 2 -pa 2 -pb 2",
	"-workload scalar -nx 16 -ny 17 -nz 16 -steps 2 -pa 2 -pb 2",
	"-nx 16 -ny 17 -nz 16 -steps 2 -retau 395 -dt 1e-3 -form skew -threads 2 -perturb 0 -seed 0",
}

// TestRunsPinned holds each run's status lines and its -report config
// block to testdata/runs.golden: the trajectory the flags select and the
// description the report gives of it.
func TestRunsPinned(t *testing.T) {
	dir := t.TempDir()
	var got strings.Builder
	for i, line := range runs {
		args := strings.ReplaceAll(line, "{dir}", dir)
		rep := filepath.Join(dir, fmt.Sprintf("report%d.json", i))
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "DNS_TEST_ARGS="+args+" -report "+rep)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("dns %s: %v\n%s", line, err, stderr.String())
		}
		fmt.Fprintf(&got, "dns %s\n", line)
		for _, l := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(l, "step ") {
				fmt.Fprintf(&got, "  %s\n", l)
			}
		}
		raw, err := os.ReadFile(rep)
		if err != nil {
			t.Fatal(err)
		}
		var r struct {
			Config map[string]string `json:"config"`
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(r.Config))
		for k := range r.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&got, "  config %s=%s\n", k, r.Config[k])
		}
	}
	golden := filepath.Join("testdata", "runs.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("dns runs differ from %s\n--- got\n%s--- want\n%s", golden, got.String(), want)
	}
}

// dns starts the test binary as dns on args; wait for it with cmd.Wait.
func dns(t *testing.T, args string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "DNS_TEST_ARGS="+args)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, &out
}

// reportComm reads the comm table of a -report file.
func reportComm(t *testing.T, path string) []map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Comm []map[string]any `json:"comm"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	return r.Comm
}

// TestTCPReportCommMatchesInProcess: a two-process TCP world's report,
// which rank 0 assembles from every rank's folded telemetry, counts the
// calls, messages and bytes of every channel exactly as the same run on
// in-process ranks does — the observability plane's own exchanges count
// nowhere.
func TestTCPReportCommMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	const run = "-nx 16 -ny 17 -nz 16 -steps 2 -pa 1 -pb 2"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := ln.Addr().String()
	ln.Close()

	chanRep := filepath.Join(dir, "chan.json")
	tcpRep := filepath.Join(dir, "tcp.json")
	var cmds []*exec.Cmd
	var outs []*bytes.Buffer
	for _, args := range []string{
		run + " -report " + chanRep,
		fmt.Sprintf("%s -transport tcp -rank 0 -world 2 -coord %s -report %s", run, coord, tcpRep),
		fmt.Sprintf("%s -transport tcp -rank 1 -world 2 -coord %s -report %s", run, coord, tcpRep),
	} {
		cmd, out := dns(t, args)
		cmds, outs = append(cmds, cmd), append(outs, out)
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("dns %s: %v\n%s", cmd.Env[len(cmd.Env)-1], err, outs[i])
		}
	}
	want, got := reportComm(t, chanRep), reportComm(t, tcpRep)
	if len(want) == 0 {
		t.Fatal("in-process report has no comm table")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TCP comm table differs from the in-process run's\n got %v\nwant %v", got, want)
	}
}

// TestPlaneFigures: -plane writes Figures 7 and 8 as PNGs of the dealiased
// physical grid (3/2 of 16 modes a side), and is refused, before any step,
// on a world of more than one rank and on a workload without a channel
// solver.
func TestPlaneFigures(t *testing.T) {
	dir := t.TempDir()
	cmd, out := dns(t, "-nx 16 -ny 17 -nz 16 -steps 3 -plane "+dir)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("dns -plane: %v\n%s", err, out)
	}
	for _, name := range []string{"figure7_u.png", "figure8_omegaz.png"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b := img.Bounds(); b.Dx() != 24 || b.Dy() != 24 {
			t.Errorf("%s is %dx%d, want 24x24", name, b.Dx(), b.Dy())
		}
	}
	for _, args := range []string{
		"-nx 16 -ny 17 -nz 16 -steps 3 -pa 2 -plane " + dir,
		"-workload isotropic -nx 16 -ny 16 -nz 16 -steps 3 -plane " + dir,
	} {
		cmd, out := dns(t, args)
		if err := cmd.Wait(); err == nil {
			t.Errorf("dns %s: exit 0, want a refusal\n%s", args, out)
		}
		if strings.Contains(out.String(), "step ") || !strings.Contains(out.String(), "-plane") {
			t.Errorf("dns %s: want a -plane refusal before any step, got\n%s", args, out)
		}
	}
}

// TestRetiredFlagsRefused: the transposes have one exchange, so the flags
// that chose the chunked one are unknown: dns names the flag and exits 2
// before any step.
func TestRetiredFlagsRefused(t *testing.T) {
	for _, tc := range []struct{ flag, args string }{
		{"-overlap", "-overlap -nx 16 -ny 17 -nz 16 -steps 1"},
		{"-chunks", "-chunks 2 -nx 16 -ny 17 -nz 16 -steps 1"},
	} {
		cmd, out := dns(t, tc.args)
		err := cmd.Wait()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("dns %s: %v, want exit status 2", tc.args, err)
		}
		if msg := out.String(); !strings.Contains(msg, "flag provided but not defined: "+tc.flag) || strings.Contains(msg, "E=") {
			t.Errorf("dns %s: want the flag named and no step, got\n%.300s", tc.args, msg)
		}
	}
}
