// Command lambdatune tunes a workload on the simulated DBMS and prints the
// winning configuration script.
//
// Usage:
//
//	lambdatune -benchmark tpch-1 -dbms postgres -samples 5 -seed 1
//	lambdatune -schema schema.json -queries ./sql/     # custom workload
//	lambdatune -trace run.jsonl -progress -metrics-addr :9090
//	lambdatune -checkpoint-dir ./ckpt                  # crash-recoverable run
//	lambdatune -checkpoint-dir ./ckpt -resume          # continue after a crash
//	lambdatune trace-summary -check run.jsonl          # per-phase cost table
//	lambdatune trace-summary http://127.0.0.1:8080/v1/jobs/job-000001/trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"lambdatune"
	"lambdatune/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace-summary" {
		os.Exit(traceSummary(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// killedExitCode is the exit status of a run that died at a chaos kill point
// (the checkpoint is durable; rerun with -resume).
const killedExitCode = 3

// run is the tuning entrypoint, separated from main so tests can drive the
// full CLI — flags, checkpointing, kill points, resume — in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lambdatune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchmark = fs.String("benchmark", "tpch-1", "built-in workload: "+strings.Join(lambdatune.BenchmarkNames(), ", "))
		schema    = fs.String("schema", "", "schema statistics JSON for a custom workload (see LoadSchema)")
		queries   = fs.String("queries", "", "directory of .sql files for a custom workload (requires -schema)")
		dbms      = fs.String("dbms", "postgres", "target system: postgres or mysql")
		samples   = fs.Int("samples", 5, "number of LLM configuration samples (k)")
		budget    = fs.Int("token-budget", 0, "prompt token budget for the workload representation (0 = model limit)")
		seed      = fs.Int64("seed", 1, "random seed for the simulated LLM")
		rag       = fs.Bool("rag", false, "augment the LLM with the bundled tuning-guide corpus (RAG)")
		temp      = fs.Float64("temperature", 0.7, "LLM sampling temperature (0 = greedy decoding)")
		llmFault  = fs.Float64("llm-fault-rate", 0, "injected LLM fault probability per call, 0..1")
		engFault  = fs.Float64("engine-fault-rate", 0, "injected engine fault probability per operation, 0..1")
		retries   = fs.Int("llm-retries", 3, "LLM retry attempts with exponential backoff (-1 disables)")
		breaker   = fs.Int("llm-breaker", 4, "consecutive LLM failures that trip the circuit breaker (-1 disables)")
		parallel  = fs.Int("parallel", 1, "concurrent evaluation workers (simulated DBMS replicas); selection results are identical for any value")
		strategy  = fs.String("strategy", "full", "candidate evaluation strategy: full (paper-faithful) or racing (successive halving with a cost surrogate)")
		instr     = fs.Bool("instrument", false, "count and time every backend call, printing a per-surface report after tuning")
		plancache = fs.Bool("plancache", true, "memoize simulated query plans (host-CPU optimization; results are identical either way)")
		verbose   = fs.Bool("v", false, "print progress events")
		traceOut  = fs.String("trace", "", "write the run's span tree to this JSONL file (inspect with `lambdatune trace-summary`)")
		progress  = fs.Bool("progress", false, "stream live round/candidate narration to stderr (virtual timestamps)")
		metrics   = fs.String("metrics-addr", "", "serve Prometheus metrics on this address (e.g. :9090) while the run lasts")
		ckptDir   = fs.String("checkpoint-dir", "", "durably checkpoint the run's resumable state into this directory (crash recovery)")
		resume    = fs.Bool("resume", false, "resume the run from the latest checkpoint in -checkpoint-dir")
		killRound = fs.Int("kill-after-round", 0, "chaos: crash after the checkpoint closing selection round N (requires -checkpoint-dir)")
		killSaves = fs.Int("kill-after-saves", 0, "chaos: crash after the Nth durable checkpoint save (requires -checkpoint-dir)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(stderr, "-resume requires -checkpoint-dir (there is no checkpoint to resume from)")
		fs.Usage()
		return 2
	}

	evalStrategy := lambdatune.FullEvaluation
	switch strings.ToLower(*strategy) {
	case "full", "":
	case "racing", "race":
		evalStrategy = lambdatune.Racing
	default:
		fmt.Fprintf(stderr, "unknown strategy %q (have: full, racing)\n", *strategy)
		return 2
	}

	flavor := lambdatune.Postgres
	switch strings.ToLower(*dbms) {
	case "postgres", "pg", "postgresql":
	case "mysql", "ms":
		flavor = lambdatune.MySQL
	default:
		fmt.Fprintf(stderr, "unknown dbms %q\n", *dbms)
		return 2
	}

	// One runtime hosts the run; for this one-shot CLI it behaves exactly
	// like the standalone path, and keeps the CLI on the same pipeline the
	// lambdatuned service uses.
	rt := lambdatune.NewRuntime(lambdatune.RuntimeOptions{})
	defer rt.Close()

	var (
		db  *lambdatune.Database
		w   *lambdatune.Workload
		err error
	)
	if *schema != "" || *queries != "" {
		if *schema == "" || *queries == "" {
			fmt.Fprintln(stderr, "-schema and -queries must be used together")
			return 2
		}
		name, tables, lerr := lambdatune.LoadSchema(*schema)
		if lerr != nil {
			fmt.Fprintln(stderr, lerr)
			return 2
		}
		db, err = lambdatune.NewDatabase(flavor, name, tables, lambdatune.DefaultHardware)
		if err == nil {
			w, err = lambdatune.LoadQueriesDir(*queries)
		}
	} else {
		db, w, err = rt.Benchmark(*benchmark, flavor)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	opts := lambdatune.DefaultOptions()
	opts.Samples = *samples
	opts.TokenBudget = *budget
	opts.Seed = *seed
	opts.Temperature = *temp
	opts.Evaluation.Parallelism = *parallel
	opts.Evaluation.Strategy = evalStrategy
	opts.Durability.CheckpointDir = *ckptDir
	opts.Durability.Resume = *resume
	if *llmFault != 0 || *engFault != 0 {
		opts.Resilience = &lambdatune.ResilienceOptions{MaxRetries: *retries, BreakerThreshold: *breaker}
	}
	// Any nonzero value builds the plan, so Options.Validate names an
	// out-of-range one instead of the run ignoring it.
	if *llmFault != 0 || *engFault != 0 || *killRound != 0 || *killSaves != 0 {
		opts.Faults = &lambdatune.FaultPlan{LLMRate: *llmFault, EngineRate: *engFault, Seed: *seed,
			CrashAfterRound: *killRound, CrashAfterSaves: *killSaves}
	}

	db.SetPlanCache(*plancache)
	if *instr {
		db.Instrument()
	}

	var trace *lambdatune.Trace
	if *traceOut != "" {
		trace = lambdatune.NewTrace()
		opts.Observability.Trace = trace
	}
	if *progress {
		opts.Observability.Progress = stderr
	}
	var reg *lambdatune.Metrics
	if *metrics != "" {
		reg = lambdatune.NewMetrics()
		opts.Observability.Metrics = reg
		ms := obs.NewMetricsServer(reg.Registry(), *metrics)
		if err := ms.Start(func(err error) { fmt.Fprintln(stderr, "metrics server:", err) }); err != nil {
			fmt.Fprintln(stderr, "metrics server:", err)
			return 2
		}
		// Graceful shutdown on every exit path: in-flight scrapes finish and
		// the port is released before the process ends.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			_ = ms.Shutdown(ctx)
		}()
		fmt.Fprintf(stderr, "serving metrics on %s/metrics\n", ms.Addr())
	}

	client := lambdatune.NewSimulatedLLM(*seed)
	if *rag {
		client = lambdatune.WithRetrieval(client, nil)
	}
	fmt.Fprintf(stdout, "Tuning %s (%d queries) on %s with %s...\n", w.Name(), w.Len(), *dbms, client.Name())
	// Ctrl-C cancels the run cleanly: LLM calls abort and evaluation workers
	// stop within one query execution.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := rt.TuneContext(ctx, db, w, client, opts)
	if trace != nil {
		// The trace is written even when the run failed: whatever spans were
		// recorded up to the error are worth inspecting.
		if werr := trace.WriteFile(*traceOut); werr != nil {
			fmt.Fprintln(stderr, "trace export:", werr)
		} else {
			fmt.Fprintf(stderr, "trace: %d spans -> %s\n", trace.Len(), *traceOut)
		}
	}
	if errors.Is(err, lambdatune.ErrKilled) {
		fmt.Fprintf(stderr, "killed at chaos kill point; checkpoint is durable in %s — rerun with -resume\n", *ckptDir)
		return killedExitCode
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		if errors.Is(err, lambdatune.ErrInvalidOptions) {
			return 2
		}
		return 1
	}

	if res.Resumed {
		fmt.Fprintln(stdout, "resumed from durable checkpoint")
		if res.CheckpointFellBack {
			fmt.Fprintln(stdout, "(live checkpoint was corrupt; fell back to the previous generation)")
		}
	}
	fmt.Fprintf(stdout, "\nBest configuration (%d candidates, %d prompt tokens):\n\n%s\n",
		res.Candidates, res.PromptTokens, res.BestScript)
	fmt.Fprintf(stdout, "workload: %.1fs default → %.1fs tuned (%.1fx speedup)\n",
		res.DefaultSeconds, res.BestSeconds, res.Speedup())
	fmt.Fprintf(stdout, "tuning cost: %.1fs simulated (bounded by Theorem 4.3)\n", res.TuningSeconds)
	if res.Faults.Any() {
		fmt.Fprintf(stdout, "faults survived: %s\n", res.Faults)
	}
	if *instr {
		fmt.Fprintf(stdout, "\n%s\n", db.BackendReport())
	}
	if trace != nil {
		fmt.Fprintf(stdout, "\nphase breakdown:\n%s", trace.SummaryTable())
	}
	if *verbose {
		fmt.Fprintln(stdout, "\nprogress:")
		for _, p := range res.Progress {
			fmt.Fprintf(stdout, "  %8.1fs → best %.1fs\n", p.TuningSeconds, p.BestSeconds)
		}
		for _, wmsg := range res.Warnings {
			fmt.Fprintln(stdout, "warning:", wmsg)
		}
	}
	return 0
}

// traceSummary implements the `lambdatune trace-summary [-check] <source>`
// subcommand: it reads an exported trace and prints the per-phase cost
// breakdown; -check first validates the file against the span schema. The
// source is either a local JSONL file or an http(s) URL — typically a
// daemon's /v1/jobs/{id}/trace endpoint.
func traceSummary(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace-summary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	check := fs.Bool("check", false, "validate the trace against the span schema before summarizing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: lambdatune trace-summary [-check] <trace.jsonl | http://host/v1/jobs/ID/trace>")
		return 2
	}
	recs, err := readTrace(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *check {
		if err := obs.ValidateRecords(recs); err != nil {
			fmt.Fprintf(stderr, "invalid trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace ok: %d spans\n", len(recs))
	}
	fmt.Fprint(stdout, obs.SummaryTable(obs.Summarize(recs)))
	return 0
}

// readTrace loads span records from a local JSONL file or, when source is an
// http(s) URL, from a trace endpoint over the network.
func readTrace(source string) ([]obs.SpanRecord, error) {
	if !strings.HasPrefix(source, "http://") && !strings.HasPrefix(source, "https://") {
		return obs.ReadFile(source)
	}
	resp, err := http.Get(source)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("GET %s: %s: %s", source, resp.Status, strings.TrimSpace(string(body)))
	}
	return obs.ReadJSONL(resp.Body)
}
