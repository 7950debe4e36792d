package bench

import (
	"context"
	"fmt"
	"strings"

	"lambdatune/internal/core/tuner"
	"lambdatune/internal/engine"
	"lambdatune/internal/faults"
	"lambdatune/internal/llm"
)

// RobustnessRow is one fault setting of the robustness sweep: λ-Tune under
// injected LLM and engine faults, with the resilience layer enabled.
type RobustnessRow struct {
	LLMRate    float64
	EngineRate float64
	// Speedup is DefaultTime / BestTime (≥ 1 when degradation seeds the
	// default configuration into the candidate pool).
	Speedup       float64
	BestTime      float64
	DefaultTime   float64
	TuningSeconds float64
	Faults        tuner.FaultReport
	// Err is set when the run failed outright (every sample dropped).
	Err string
}

// RobustnessRates is the sweep grid: LLM fault rates × engine fault rates.
var RobustnessRates = struct {
	LLM    []float64
	Engine []float64
}{
	LLM:    []float64{0, 0.1, 0.3, 0.5},
	Engine: []float64{0, 0.1},
}

// RobustnessTrial runs one tuning run on TPC-H 1GB / Postgres with the given
// injected fault rates and the resilience layer at production defaults.
// Fully deterministic in seed: same seed → byte-identical row.
func RobustnessTrial(seed int64, llmRate, engineRate float64) RobustnessRow {
	row := RobustnessRow{LLMRate: llmRate, EngineRate: engineRate}
	sc := Scenario{Benchmark: "tpch-1", Flavor: engine.Postgres, Seed: seed}
	db, w, err := sc.NewDB()
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.DefaultTime = db.WorkloadSeconds(w.Queries)

	inj := faults.NewInjector(faults.NewPlan(llmRate, engineRate), seed, db.Clock())
	db.SetFaultInjector(inj)
	client := llm.WithInterceptor(llm.NewSimClient(seed), inj)

	opts := tuner.DefaultOptions()
	opts.Seed = seed
	opts.Resilience = &llm.ResilienceOptions{} // production defaults, db clock
	res, err := tuner.New(db, client, opts).Tune(context.Background(), w.Queries)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.BestTime = res.BestTime
	row.TuningSeconds = res.TuningSeconds
	row.Faults = res.Faults
	if res.BestTime > 0 {
		row.Speedup = row.DefaultTime / res.BestTime
	}
	return row
}

// Robustness sweeps the fault grid (E12). Every cell is an independent run on
// a fresh database.
func Robustness(seed int64) ([]RobustnessRow, error) {
	var rows []RobustnessRow
	for _, er := range RobustnessRates.Engine {
		for _, lr := range RobustnessRates.LLM {
			rows = append(rows, RobustnessTrial(seed, lr, er))
		}
	}
	return rows, nil
}

// RenderRobustness prints the sweep as a table.
func RenderRobustness(rows []RobustnessRow) string {
	var b strings.Builder
	b.WriteString("λ-Tune under injected faults, TPC-H 1GB / Postgres (resilient client, default seeding)\n")
	fmt.Fprintf(&b, "%6s %6s %9s %9s %8s %8s %8s %7s %7s %7s %s\n",
		"llm%", "eng%", "speedup", "tuning_s", "llmfail", "retries", "dropped", "aborts", "ixfail", "breaker", "note")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%6.0f %6.0f %9s %9s %8s %8s %8s %7s %7s %7s run failed: %s\n",
				r.LLMRate*100, r.EngineRate*100, "-", "-", "-", "-", "-", "-", "-", "-", r.Err)
			continue
		}
		note := ""
		if r.Faults.DegradedToDefault {
			note = "degraded to default"
		}
		fmt.Fprintf(&b, "%6.0f %6.0f %8.2fx %9.1f %8d %8d %8d %7d %7d %7d %s\n",
			r.LLMRate*100, r.EngineRate*100, r.Speedup, r.TuningSeconds,
			r.Faults.LLMFailures, r.Faults.LLMRetries, r.Faults.DroppedSamples,
			r.Faults.QueryAborts, r.Faults.IndexFailures, r.Faults.BreakerTrips, note)
	}
	return b.String()
}
