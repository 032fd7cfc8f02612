// Command perfbench is the repository's benchmark: one command that
// builds generated programs in closed loops, times every build in a
// fresh OS process, checks every image against an independent oracle
// and against a cache-less build, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer ledger) as one JSON line.
//
//	perfbench -workload edit-loop -seed 1 -seconds 33 -trace 0
//
// Run it through run.sh, which builds this binary and the cmod daemon
// from the checkout's sources first. See README.md for the workloads,
// the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// processStart anchors setup_s: a cold set-up is timed from the
// process's start, not from the first line of main.
var processStart = time.Now()

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain parses the benchmark's flags, runs one workload and prints
// its result as the last line of stdout. It returns the exit code.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (selective-budget, edit-loop, remote-fill)")
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same programs and edits")
	seconds := fs.Float64("seconds", 33, "measurement time; whole rounds only, at least one")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer ledger instead of end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for temporary build state and the ledger files")
	cmod := fs.String("cmod", "", "path to the cmod binary (remote-fill only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	// SIGTERM/SIGINT cancel the run: child builds are drained, the
	// daemon is stopped, temporary directories are removed, and the
	// process exits non-zero without a result.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	r := &runner{
		def:     def,
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		outDir:  *out,
		exe:     []string{exe, "child"},
		cmod:    *cmod,
		log:     stderr,
	}
	res, err := r.run(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
