package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lambdatune/internal/core/tuner"
	"lambdatune/internal/engine"
	"lambdatune/internal/llm"
)

// E13 — parallel-evaluation scaling. The paper's testbed evaluates candidate
// configurations on one DBMS instance; with N instances the rounds of
// Algorithm 2 parallelize (DESIGN.md §7). This experiment pins the two
// properties that make the parallel evaluator trustworthy:
//
//  1. Invariance: every worker count picks the same best configuration with
//     the same speedup (virtual tuning cost varies — rounds cost the slowest
//     replica's elapsed time instead of the sequential early-break path).
//  2. Scaling: the real wall-clock time of the evaluation phase drops as
//     workers are added (each simulated query execution is given a real CPU
//     cost via engine.SetExecHook, so there is actual work to parallelize).

// ScalingRow is one worker count of the sweep.
type ScalingRow struct {
	Workers int
	// BestID / Speedup / BestTime must be identical across all rows
	// (parallelism-invariance).
	BestID        string
	Speedup       float64
	BestTime      float64
	TuningSeconds float64
	// EvalWallSeconds is the real wall-clock time of the selection phase —
	// the quantity that scales with Workers.
	EvalWallSeconds float64
}

// ScalingWorkerCounts is the sweep grid.
var ScalingWorkerCounts = []int{1, 2, 4, 8}

// spin busy-waits for roughly d, attaching a real CPU cost to a simulated
// query execution. A sleep would not work: sleeping goroutines overlap even
// on one core, so wall-clock time would "scale" without any real parallelism.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// ScalingTrial runs one tuning run on TPC-H 1GB / Postgres with the given
// worker count, burning burn of real CPU per query execution.
func ScalingTrial(seed int64, workers int, burn time.Duration) (ScalingRow, error) {
	row := ScalingRow{Workers: workers}
	sc := Scenario{Benchmark: "tpch-1", Flavor: engine.Postgres, Seed: seed}
	db, w, err := sc.NewDB()
	if err != nil {
		return row, err
	}
	defaultTime := db.WorkloadSeconds(w.Queries)
	if burn > 0 {
		db.SetExecHook(func(q *engine.Query, seconds float64) { spin(burn) })
	}

	opts := tuner.DefaultOptions()
	opts.Seed = seed
	opts.Selector.Parallelism = workers
	res, err := tuner.New(db, llm.NewSimClient(seed), opts).Tune(context.Background(), w.Queries)
	if err != nil {
		return row, err
	}
	if res.Best != nil {
		row.BestID = res.Best.ID
	}
	row.BestTime = res.BestTime
	row.TuningSeconds = res.TuningSeconds
	row.EvalWallSeconds = res.EvalWallSeconds
	if res.BestTime > 0 {
		row.Speedup = defaultTime / res.BestTime
	}
	return row, nil
}

// Scaling sweeps the worker counts (E13). Every row is an independent run on
// a fresh database with the same seed; selection results must agree.
func Scaling(seed int64, burn time.Duration) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, n := range ScalingWorkerCounts {
		row, err := ScalingTrial(seed, n, burn)
		if err != nil {
			return nil, fmt.Errorf("scaling workers=%d: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderScaling prints the sweep as a table.
func RenderScaling(rows []ScalingRow) string {
	var b strings.Builder
	b.WriteString("E13 parallel-evaluation scaling, TPC-H 1GB / Postgres\n")
	fmt.Fprintf(&b, "%8s %10s %9s %9s %10s %9s\n",
		"workers", "best", "speedup", "tuning_s", "evalwall_s", "scale")
	var base float64
	for _, r := range rows {
		if base == 0 {
			base = r.EvalWallSeconds
		}
		scale := 0.0
		if r.EvalWallSeconds > 0 {
			scale = base / r.EvalWallSeconds
		}
		fmt.Fprintf(&b, "%8d %10s %8.2fx %9.1f %10.2f %8.2fx\n",
			r.Workers, r.BestID, r.Speedup, r.TuningSeconds, r.EvalWallSeconds, scale)
	}
	return b.String()
}
