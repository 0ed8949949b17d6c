// Command ckpt inspects checkpoint stores written by the dns command
// (internal/ckpt format):
//
//	ckpt ls -dir DIR              list checkpoints with their status
//	ckpt ls -runs DIR             list a dnsserve run store: every run with
//	                              its state, workload and latest checkpoint
//	ckpt verify -dir DIR [NAME]   fully verify one or all checkpoints
package main

import (
	"flag"
	"fmt"
	"os"

	"channeldns/internal/ckpt"
	"channeldns/internal/server"
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: ckpt {ls|verify} {-dir DIR | -runs DIR} [options] [NAME]\n")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet("ckpt "+cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "checkpoint store directory")
	runs := fs.String("runs", "", "ls: treat DIR as a dnsserve run-store root and list every run")
	fs.Parse(os.Args[2:])
	if *runs != "" && cmd == "ls" {
		if err := lsRuns(*runs); err != nil {
			fmt.Fprintf(os.Stderr, "ckpt ls: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *dir == "" {
		usage()
	}
	store := ckpt.NewStore(*dir)

	var err error
	switch cmd {
	case "ls":
		err = ls(store)
	case "verify":
		err = verify(store, fs.Arg(0))
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ckpt %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func ls(store *ckpt.Store) error {
	names, err := store.Checkpoints()
	if err != nil {
		return err
	}
	if len(names) == 0 {
		fmt.Println("no checkpoints")
		return nil
	}
	for _, name := range names {
		m, err := store.Verify(name)
		if err != nil {
			fmt.Printf("%s  INVALID: %v\n", name, err)
			continue
		}
		var bytes int64
		for _, sh := range m.Shards {
			bytes += sh.Bytes
		}
		fmt.Printf("%s  ok  step=%d t=%.6g dt=%.6g ranks=%d bytes=%d fingerprint=%s\n",
			name, m.Step, m.Time, m.Dt, m.Ranks, bytes, m.Fingerprint)
	}
	return nil
}

// lsRuns lists a dnsserve run store through the same discovery code the
// server's restart recovery uses: one line per run with its persisted
// state, workload, position, and latest published checkpoint.
func lsRuns(root string) error {
	runs, err := server.DiscoverRuns(root)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		fmt.Println("no runs")
		return nil
	}
	for _, ri := range runs {
		ckptCol := "-"
		if ri.Manifest != nil {
			ckptCol = fmt.Sprintf("%s step=%d", ri.CkptName, ri.Manifest.Step)
		}
		resume := ""
		if ri.Resumable() && ri.Status.State != server.StatePaused {
			resume = "  (resumes on next server start)"
		}
		fmt.Printf("%s  %-11s  %-9s  step=%-6d  ckpt=%s%s\n",
			server.RunID(ri.ID), ri.Status.State, ri.Spec.Workload,
			ri.Status.Step, ckptCol, resume)
	}
	return nil
}

func verify(store *ckpt.Store, name string) error {
	names := []string{name}
	if name == "" {
		var err error
		if names, err = store.Checkpoints(); err != nil {
			return err
		}
	}
	bad := 0
	for _, n := range names {
		if _, err := store.Verify(n); err != nil {
			fmt.Printf("%s  INVALID: %v\n", n, err)
			bad++
		} else {
			fmt.Printf("%s  ok\n", n)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d checkpoints invalid", bad, len(names))
	}
	return nil
}
