package bench

import (
	"context"
	"fmt"
	"math"
	"strings"

	"lambdatune/internal/backend/instrumented"
	"lambdatune/internal/core/selector"
	"lambdatune/internal/core/tuner"
	"lambdatune/internal/engine"
	"lambdatune/internal/llm"
)

// E14 — racing (successive-halving) approximate evaluation. Full evaluation
// pays for every candidate on the whole workload each selection round; the
// racing strategy evaluates candidates on growing DP-schedule prefixes,
// eliminates the surrogate-dominated half per rung, and reserves the exact
// Algorithm 2 pass for the final survivors. This study pins the two
// properties that make racing worth shipping:
//
//  1. Cost: total evaluated query-seconds (the virtual-clock time charged by
//     RunQuery across the whole tuning run) drop by ≥ 2x at k=20 candidates.
//  2. Quality: the racing-selected configuration's speedup stays within 5%
//     of the full-evaluation configuration's speedup — the final pass is
//     exact, so the reported best time is a real measurement either way.

// RaceSamples is k, the candidate count of the study (acceptance criterion
// fixes k=20).
const RaceSamples = 20

// RaceRow is one evaluation strategy's cost/quality summary.
type RaceRow struct {
	Strategy string `json:"strategy"`
	BestID   string `json:"best"`
	// BestTime is the winner's exact full-workload time in simulated
	// seconds (both strategies report an exact measurement).
	BestTime float64 `json:"best_time_s"`
	// Speedup is default-config workload time / BestTime.
	Speedup float64 `json:"speedup"`
	// EvaluatedQuerySeconds is the total virtual query-execution time the
	// strategy spent evaluating candidates: the RunQuery virtual-clock sum
	// over the whole tuning run, measured by the instrumented backend.
	EvaluatedQuerySeconds float64 `json:"evaluated_query_seconds"`
	// QueryRuns counts RunQuery calls (timed executions, including
	// timed-out prefixes).
	QueryRuns uint64 `json:"query_runs"`
	// TuningSeconds is the end-to-end virtual tuning cost.
	TuningSeconds float64 `json:"tuning_s"`
}

// RaceStudy compares full vs racing evaluation at the same candidate count,
// seed, and workload.
type RaceStudy struct {
	Benchmark string  `json:"benchmark"`
	Samples   int     `json:"candidates"`
	Seed      int64   `json:"seed"`
	Full      RaceRow `json:"full"`
	Racing    RaceRow `json:"racing"`
	// Reduction is Full.EvaluatedQuerySeconds / Racing.EvaluatedQuerySeconds
	// — how much evaluation work racing saves (≥ 2x is the acceptance bar).
	Reduction float64 `json:"evaluated_seconds_reduction"`
	// SpeedupDelta is |Racing.Speedup − Full.Speedup| / Full.Speedup
	// (≤ 0.05 is the acceptance bar).
	SpeedupDelta float64 `json:"speedup_delta"`
}

// RaceTrial runs one tuning run on TPC-H 1GB / Postgres with the given
// evaluation strategy and candidate count, measuring evaluated
// query-seconds through the instrumented backend decorator.
func RaceTrial(seed int64, samples int, strategy selector.Strategy) (RaceRow, error) {
	row := RaceRow{Strategy: "full"}
	if strategy == selector.Racing {
		row.Strategy = "racing"
	}
	sc := Scenario{Benchmark: "tpch-1", Flavor: engine.Postgres, Seed: seed}
	db, w, err := sc.NewDB()
	if err != nil {
		return row, err
	}
	// Measure the default-config baseline on the raw backend so the
	// instrumented counters below cover tuning work only.
	defaultTime := db.WorkloadSeconds(w.Queries)
	idb := instrumented.Wrap(db)

	opts := tuner.DefaultOptions()
	opts.Seed = seed
	opts.Samples = samples
	opts.Selector.Strategy = strategy
	res, err := tuner.New(idb, llm.NewSimClient(seed), opts).Tune(context.Background(), w.Queries)
	if err != nil {
		return row, err
	}
	reg := idb.Registry()
	row.EvaluatedQuerySeconds = reg.Counter("backend_run_query_virtual_seconds_total").Value()
	row.QueryRuns = uint64(reg.Counter("backend_run_query_calls_total").Value())
	if res.Best != nil {
		row.BestID = res.Best.ID
	}
	row.BestTime = res.BestTime
	row.TuningSeconds = res.TuningSeconds
	if res.BestTime > 0 {
		row.Speedup = defaultTime / res.BestTime
	}
	return row, nil
}

// Race runs the E14 study: full vs racing evaluation at k=RaceSamples
// candidates, same seed, independent fresh databases.
func Race(seed int64) (*RaceStudy, error) {
	s := &RaceStudy{Benchmark: "tpch-1", Samples: RaceSamples, Seed: seed}
	var err error
	if s.Full, err = RaceTrial(seed, RaceSamples, selector.FullEvaluation); err != nil {
		return nil, fmt.Errorf("race full: %w", err)
	}
	if s.Racing, err = RaceTrial(seed, RaceSamples, selector.Racing); err != nil {
		return nil, fmt.Errorf("race racing: %w", err)
	}
	if s.Racing.EvaluatedQuerySeconds > 0 {
		s.Reduction = s.Full.EvaluatedQuerySeconds / s.Racing.EvaluatedQuerySeconds
	}
	if s.Full.Speedup > 0 {
		s.SpeedupDelta = math.Abs(s.Racing.Speedup-s.Full.Speedup) / s.Full.Speedup
	}
	return s, nil
}

// RenderRace prints the study as a table.
func RenderRace(s *RaceStudy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E14 racing vs full evaluation, %s / Postgres, k=%d candidates, seed %d\n",
		s.Benchmark, s.Samples, s.Seed)
	fmt.Fprintf(&b, "%8s %10s %9s %11s %8s %9s\n",
		"strategy", "best", "speedup", "evalqsec", "queries", "tuning_s")
	for _, r := range []RaceRow{s.Full, s.Racing} {
		fmt.Fprintf(&b, "%8s %10s %8.2fx %11.1f %8d %9.1f\n",
			r.Strategy, r.BestID, r.Speedup, r.EvaluatedQuerySeconds, r.QueryRuns, r.TuningSeconds)
	}
	fmt.Fprintf(&b, "evaluated query-seconds reduction: %.2fx   speedup delta: %.2f%%\n",
		s.Reduction, 100*s.SpeedupDelta)
	return b.String()
}
