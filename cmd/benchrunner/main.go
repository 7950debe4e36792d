// Command benchrunner regenerates the paper's evaluation artifacts (every
// table and figure of §6) on the simulated substrate and prints them.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp table3 -trials 3
//	benchrunner -exp fig6
//
// The experiments are the entries of bench.Experiments; DESIGN.md's
// per-experiment index describes each one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lambdatune/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// writeProfile dumps the named runtime/pprof profile (mutex, block) to path.
func writeProfile(name, path string, stderr io.Writer) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(stderr, err)
	}
}

// run is main with its arguments and output streams injected; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
	}
	valid := strings.Join(names, " ") + " all"

	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp          = fs.String("exp", "all", "experiment: "+valid)
		trials       = fs.Int("trials", 3, "repetitions per scenario (the paper uses 3)")
		seed         = fs.Int64("seed", 1, "base random seed")
		burn         = fs.Duration("burn", 500*time.Microsecond, "real CPU burned per simulated query execution in the scaling study")
		csvDir       = fs.String("csv", "", "also write machine-readable CSVs to this directory")
		charts       = fs.Bool("charts", false, "render convergence figures as ASCII charts")
		cpuProfile   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
		mutexProfile = fs.String("mutexprofile", "", "write a pprof mutex-contention profile at exit to this file")
		blockProfile = fs.String("blockprofile", "", "write a pprof blocking profile at exit to this file")
		traceDir     = fs.String("trace-dir", "", "write one JSONL span trace per λ-Tune run into this directory (inspect with `lambdatune trace-summary`)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	selected := bench.Experiments
	if *exp != "all" {
		selected = nil
		for _, e := range bench.Experiments {
			if e.Name == *exp {
				selected = []bench.Experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "unknown experiment %q; valid: %s\n", *exp, valid)
			return 2
		}
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		bench.SetTraceDir(*traceDir)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}
	// The contention profiles sample every event (rate/fraction 1): these are
	// offline benchmark runs, so fidelity beats sampling overhead.
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexProfile, stderr)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockProfile, stderr)
	}

	r := bench.NewRunner()
	p := bench.Params{Seed: *seed, Trials: *trials, Burn: *burn, CSVDir: *csvDir, Charts: *charts}
	for _, e := range selected {
		start := time.Now()
		_, out, err := e.Run(r, p)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Title, err)
			return 1
		}
		fmt.Fprintf(stdout, "### %s (generated in %.1fs real time)\n\n%s\n", e.Title, time.Since(start).Seconds(), out)
	}
	return 0
}
