// Command lambdabench is the end-to-end benchmark of the λ-Tune reproduction:
// three workloads drive an in-process lambdatuned over loopback HTTP and one
// runs standalone Database.Tune, each checked against isolated reference
// runs. See README.md.
//
// Usage:
//
//	lambdabench -workload <name|all> -seed N [-seconds S] [-trace 0|1] [-data-dir DIR] [-json DIR] [-trace-out FILE]
//	lambdabench -compare base/ head/
//
// The last line of standard output is the run's result as one JSON object:
// correct, attempted, failed and metrics (end-to-end metrics, or per-layer
// metrics with -trace 1). The line before it is the full report, with
// provenance and job counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lambdatune/lambdabench/internal/benchmark"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lambdabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed the job mixes are generated from (>= 0)")
		seconds  = fs.Float64("seconds", 12, "length of each measured window, in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		dataDir  = fs.String("data-dir", os.TempDir(), "directory for the daemon's data and the trace file")
		jsonDir  = fs.String("json", "", "also write each report to DIR/<workload>-seed<N>[-trace].json")
		traceOut = fs.String("trace-out", "", "traced run's JSONL file (default: in -data-dir)")
		compare  = fs.Bool("compare", false, "compare two directories of -json reports: -compare base/ head/")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: lambdabench -compare base/ head/")
			return 2
		}
		table, err := benchmark.Compare(fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "lambdabench:", err)
			return 1
		}
		fmt.Fprint(stdout, table)
		return 0
	}
	if *name == "" || *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	var workloads []*benchmark.Workload
	if *name == "all" {
		for i := range benchmark.Workloads {
			workloads = append(workloads, &benchmark.Workloads[i])
		}
	} else {
		w, err := benchmark.WorkloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "lambdabench:", err)
			return 2
		}
		workloads = append(workloads, w)
	}
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "lambdabench:", err)
		return 1
	}
	for _, w := range workloads {
		rep, err := benchmark.Run(benchmark.Options{
			Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			DataDir: *dataDir, TraceOut: *traceOut,
		})
		if err != nil {
			fmt.Fprintf(stderr, "lambdabench: %s: %v\n", w.Name, err)
			return 1
		}
		if *jsonDir != "" {
			if err := writeReport(*jsonDir, rep); err != nil {
				fmt.Fprintln(stderr, "lambdabench:", err)
				return 1
			}
		}
		full, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(stderr, "lambdabench:", err)
			return 1
		}
		result, err := json.Marshal(rep.Result)
		if err != nil {
			fmt.Fprintln(stderr, "lambdabench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n%s\n", full, result)
	}
	return 0
}

func writeReport(dir string, rep *benchmark.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", rep.Workload, rep.Seed)
	if rep.Trace {
		name += "-trace"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}
