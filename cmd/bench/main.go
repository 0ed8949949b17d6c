// Command bench is, at this commit, only the command line the five paper-table
// tools and examples/scaling are about to be folded into: it translates
// `-table NAME [flags]` into the old tool's invocation and runs that with
// `go run`, so the golden files beside it are pinned against the parent's
// programs before the fold replaces them.
package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
)

// old maps a -table name to the package that printed it and the flags that
// selected it there.
var old = map[string][]string{
	"1":        {"channeldns/cmd/bench-solver"},
	"2":        {"channeldns/cmd/bench-node", "-table", "2"},
	"3":        {"channeldns/cmd/bench-node", "-table", "3"},
	"4":        {"channeldns/cmd/bench-node", "-table", "4"},
	"5":        {"channeldns/cmd/bench-comm"},
	"fig4":     {"channeldns/cmd/bench-comm", "-pattern"},
	"6":        {"channeldns/cmd/bench-fft"},
	"7":        {"channeldns/cmd/bench-timestep", "-configs"},
	"8":        {"channeldns/cmd/bench-timestep", "-configs"},
	"9":        {"channeldns/cmd/bench-timestep"},
	"10":       {"channeldns/cmd/bench-timestep", "-weak"},
	"11":       {"channeldns/cmd/bench-timestep", "-hybrid"},
	"campaign": {"channeldns/examples/scaling"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 || args[0] != "-table" || old[args[1]] == nil {
		fmt.Fprintln(stderr, "usage: bench -table 1|2|3|4|5|6|7|8|9|10|11|fig4|campaign [flags of the old tool]")
		return 2
	}
	argv := append([]string{"run"}, old[args[1]]...)
	if args[1] == "9" && len(args) == 2 {
		argv = append(argv, "-strong") // bench-timestep without flags printed Tables 7-11
	}
	cmd := exec.Command("go", append(argv, args[2:]...)...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
