// Command benchrunner regenerates the paper's evaluation artifacts (every
// table and figure of §6) on the simulated substrate and prints them.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp table3 -trials 3
//	benchrunner -exp fig6
//
// Experiment identifiers follow DESIGN.md's per-experiment index.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"lambdatune/internal/bench"
	"lambdatune/internal/bench/obsstudy"
	"lambdatune/internal/bench/runtimestudy"
)

// writeProfile dumps the named runtime/pprof profile (mutex, block) to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment: table3 table4 table5 fig3 fig4 fig5 fig6 fig7 fig8 transfer outliers robustness scaling race runtime obsoverhead all")
		trials       = flag.Int("trials", 3, "repetitions per scenario (the paper uses 3)")
		seed         = flag.Int64("seed", 1, "base random seed")
		burn         = flag.Duration("burn", 500*time.Microsecond, "real CPU burned per simulated query execution in the scaling study")
		csvDir       = flag.String("csv", "", "also write machine-readable CSVs to this directory")
		charts       = flag.Bool("charts", false, "render convergence figures as ASCII charts")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		mutexProfile = flag.String("mutexprofile", "", "write a pprof mutex-contention profile at exit to this file")
		blockProfile = flag.String("blockprofile", "", "write a pprof blocking profile at exit to this file")
		traceDir     = flag.String("trace-dir", "", "write one JSONL span trace per λ-Tune run into this directory (inspect with `lambdatune trace-summary`)")
		raceJSON     = flag.String("race-json", "", "also write the E14 racing study as machine-readable JSON to this file")
		rtJSON       = flag.String("runtime-json", "", "also write the E15 shared-runtime study as machine-readable JSON to this file")
		jobCount     = flag.Int("jobs", obsstudy.Jobs, "job count for the E17 overhead study")
		obsJSON      = flag.String("obs-json", "", "also write the E17 observability-overhead study as machine-readable JSON to this file")
	)
	flag.Parse()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		bench.SetTraceDir(*traceDir)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
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
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	// The contention profiles sample every event (rate/fraction 1): these are
	// offline benchmark runs, so fidelity beats sampling overhead.
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexProfile)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockProfile)
	}

	r := bench.NewRunner()
	run := func(name string, f func() (string, error)) {
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("### %s (generated in %.1fs real time)\n\n%s\n", name, time.Since(start).Seconds(), out)
	}

	all := *exp == "all"
	if all || *exp == "table3" {
		run("Table 3 — scaled cost of best configuration per system", func() (string, error) {
			rows, err := bench.Table3(r, *seed, *trials)
			if err != nil {
				return "", err
			}
			if *csvDir != "" {
				if err := bench.ExportTable3CSV(*csvDir, rows); err != nil {
					return "", err
				}
			}
			return bench.RenderTable3(rows), nil
		})
	}
	if all || *exp == "table4" {
		run("Table 4 — configurations evaluated per baseline (Postgres)", func() (string, error) {
			rows, err := bench.Table4(r, *seed, *trials)
			if err != nil {
				return "", err
			}
			if *csvDir != "" {
				if err := bench.ExportTable4CSV(*csvDir, rows); err != nil {
					return "", err
				}
			}
			return bench.RenderTable4(rows), nil
		})
	}
	if all || *exp == "table5" {
		run("Table 5 — best λ-Tune configuration for TPC-H 1GB (Postgres)", func() (string, error) {
			t5, err := bench.BuildTable5(*seed)
			if err != nil {
				return "", err
			}
			return bench.RenderTable5(t5), nil
		})
	}
	renderFigs := func(figs []bench.FigureConvergence) string {
		if !*charts {
			return bench.RenderConvergence(figs)
		}
		var out string
		for _, fc := range figs {
			out += bench.AsciiChart(fc, 72)
		}
		return out
	}
	if all || *exp == "fig3" {
		run("Figure 3 — convergence, pure parameter tuning (initial indexes)", func() (string, error) {
			figs, err := bench.Convergence(r, *seed, *trials, true)
			if err != nil {
				return "", err
			}
			if *csvDir != "" {
				if err := bench.ExportConvergenceCSV(*csvDir, "figure3", figs); err != nil {
					return "", err
				}
			}
			return renderFigs(figs), nil
		})
	}
	if all || *exp == "fig4" {
		run("Figure 4 — convergence, index creation allowed (no initial indexes)", func() (string, error) {
			figs, err := bench.Convergence(r, *seed, *trials, false)
			if err != nil {
				return "", err
			}
			if *csvDir != "" {
				if err := bench.ExportConvergenceCSV(*csvDir, "figure4", figs); err != nil {
					return "", err
				}
			}
			return renderFigs(figs), nil
		})
	}
	if all || *exp == "fig5" {
		run("Figure 5 — per-query times, λ-Tune vs default (TPC-H 1GB, Postgres)", func() (string, error) {
			rows, err := bench.Figure5(*seed)
			if err != nil {
				return "", err
			}
			if *csvDir != "" {
				if err := bench.ExportFigure5CSV(*csvDir, rows); err != nil {
					return "", err
				}
			}
			return bench.RenderFigure5(rows), nil
		})
	}
	if all || *exp == "fig6" {
		run("Figure 6 — component ablation (JOB, Postgres, no indexes)", func() (string, error) {
			rows, err := bench.Figure6(*seed)
			if err != nil {
				return "", err
			}
			return bench.RenderFigure6(rows), nil
		})
	}
	if all || *exp == "fig7" {
		run("Figure 7 — compressor token-budget study (JOB, Postgres)", func() (string, error) {
			rows, err := bench.Figure7(*seed)
			if err != nil {
				return "", err
			}
			if *csvDir != "" {
				if err := bench.ExportFigure7CSV(*csvDir, rows); err != nil {
					return "", err
				}
			}
			return bench.RenderFigure7(rows), nil
		})
	}
	if all || *exp == "fig8" {
		run("Figure 8 — index recommendation tools (Postgres)", func() (string, error) {
			rows, err := bench.Figure8(*seed)
			if err != nil {
				return "", err
			}
			return bench.RenderFigure8(rows), nil
		})
	}
	if all || *exp == "transfer" {
		run("Parameter transfer study (§6.3) — winning configs across benchmarks", func() (string, error) {
			s, err := bench.Transfer(*seed)
			if err != nil {
				return "", err
			}
			return bench.RenderTransfer(s), nil
		})
	}
	if all || *exp == "outliers" {
		run("LLM outlier study (§6.3) — 15 samples, TPC-H 1GB (Postgres)", func() (string, error) {
			o, err := bench.Outliers(*seed)
			if err != nil {
				return "", err
			}
			return bench.RenderOutliers(o), nil
		})
	}
	if all || *exp == "robustness" {
		run("Robustness study (E12) — injected LLM/engine faults, resilient pipeline", func() (string, error) {
			rows, err := bench.Robustness(*seed)
			if err != nil {
				return "", err
			}
			return bench.RenderRobustness(rows), nil
		})
	}
	if all || *exp == "scaling" {
		run("Scaling study (E13) — parallel candidate evaluation, 1..8 workers", func() (string, error) {
			rows, err := bench.Scaling(*seed, *burn)
			if err != nil {
				return "", err
			}
			return bench.RenderScaling(rows), nil
		})
	}
	if all || *exp == "race" {
		run("Racing study (E14) — full vs successive-halving candidate evaluation", func() (string, error) {
			s, err := bench.Race(*seed)
			if err != nil {
				return "", err
			}
			if *raceJSON != "" {
				if err := bench.ExportRaceJSON(*raceJSON, s); err != nil {
					return "", err
				}
			}
			return bench.RenderRace(s), nil
		})
	}
	if all || *exp == "obsoverhead" {
		run("Observability-overhead study (E17) — telemetry dark vs live on the E16 stream", func() (string, error) {
			s, err := obsstudy.Run(*seed, *jobCount)
			if err != nil {
				return "", err
			}
			if *obsJSON != "" {
				if err := obsstudy.ExportJSON(*obsJSON, s); err != nil {
					return "", err
				}
			}
			return obsstudy.Render(s), nil
		})
	}
	if all || *exp == "runtime" {
		run("Shared-runtime study (E15) — cross-job memo reuse vs isolated runs", func() (string, error) {
			s, err := runtimestudy.Run(*seed, runtimestudy.Jobs)
			if err != nil {
				return "", err
			}
			if *rtJSON != "" {
				if err := runtimestudy.ExportJSON(*rtJSON, s); err != nil {
					return "", err
				}
			}
			return runtimestudy.Render(s), nil
		})
	}
	if !all {
		switch *exp {
		case "table3", "table4", "table5", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "transfer", "outliers", "robustness", "scaling", "race", "runtime", "obsoverhead":
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
	}
}
