package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestRobustnessAcceptance is the headline robustness criterion: at 30%
// injected LLM fault rate and 10% engine fault rate, tuning still returns a
// usable best configuration with speedup ≥ 1.0, and the fault report is
// populated — retries, breaker trips, engine faults, and the virtual time
// they cost.
func TestRobustnessAcceptance(t *testing.T) {
	// Seed 2's fault stream exercises every resilience mechanism in one run.
	r := RobustnessTrial(2, 0.3, 0.1)
	if r.Err != "" {
		t.Fatalf("run failed: %s", r.Err)
	}
	if r.BestTime <= 0 {
		t.Fatal("no best configuration")
	}
	if r.Speedup < 1.0 {
		t.Fatalf("speedup %v < 1.0 under faults", r.Speedup)
	}
	f := r.Faults
	if f.LLMFailures == 0 || f.LLMRetries == 0 {
		t.Fatalf("no LLM fault activity: %+v", f)
	}
	if f.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", f)
	}
	if f.QueryAborts == 0 || f.IndexFailures == 0 {
		t.Fatalf("no engine fault activity: %+v", f)
	}
	// Waiting is charged to the virtual clock and is part of the tuning cost.
	waited := f.BackoffSeconds + f.BreakerWaitSeconds + f.FailedCallSeconds
	if waited <= 0 {
		t.Fatalf("no virtual time charged for failures: %+v", f)
	}
	if r.TuningSeconds < waited {
		t.Fatalf("TuningSeconds %v excludes the %vs spent on failures", r.TuningSeconds, waited)
	}
	if !f.Any() {
		t.Fatal("FaultReport.Any() = false")
	}
}

// TestRobustnessGracefulDegradation sweeps seeds at the acceptance fault
// rates: every run must stay usable (speedup ≥ 1), whatever the fault
// pattern.
func TestRobustnessGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(1); seed <= 8; seed++ {
		r := RobustnessTrial(seed, 0.3, 0.1)
		if r.Err != "" {
			t.Errorf("seed %d: run failed: %s", seed, r.Err)
			continue
		}
		if r.Speedup < 1.0 {
			t.Errorf("seed %d: speedup %v < 1.0", seed, r.Speedup)
		}
	}
}

// TestRobustnessDeterministic is the reproducibility property: a faulty
// tuning run at seed S is byte-identical across two executions — fault
// decisions, retries, degradation, timings, everything.
func TestRobustnessDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		a := fmt.Sprintf("%#v", RobustnessTrial(seed, 0.3, 0.1))
		b := fmt.Sprintf("%#v", RobustnessTrial(seed, 0.3, 0.1))
		if a != b {
			t.Errorf("seed %d: runs differ:\n%s\n%s", seed, a, b)
		}
	}
}

// TestRobustnessSweepShape: the fault grid renders one row per cell and the
// zero-fault cell reports a clean run.
func TestRobustnessSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault-grid sweep")
	}
	rows, err := Robustness(1)
	if err != nil {
		t.Fatal(err)
	}
	want := len(RobustnessRates.LLM) * len(RobustnessRates.Engine)
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	clean := rows[0]
	if clean.LLMRate != 0 || clean.EngineRate != 0 {
		t.Fatalf("first cell should be fault-free: %+v", clean)
	}
	if clean.Faults.Any() {
		t.Fatalf("zero-rate cell reported faults: %+v", clean.Faults)
	}
	// The shape E12 claims, by name rather than by digest: default seeding
	// keeps every cell at or above the default's speed, and every cell with
	// an engine rate survives at least one engine fault.
	for _, r := range rows {
		cell := fmt.Sprintf("llm=%g engine=%g", r.LLMRate, r.EngineRate)
		if r.Err != "" {
			t.Errorf("%s: run failed: %s", cell, r.Err)
			continue
		}
		if r.Speedup < 1 {
			t.Errorf("%s: speedup %.4g < 1", cell, r.Speedup)
		}
		if r.EngineRate > 0 && r.Faults.QueryAborts+r.Faults.IndexFailures == 0 {
			t.Errorf("%s: no query abort or index failure reported", cell)
		}
	}
	out := RenderRobustness(rows)
	if !strings.Contains(out, "llm%") || strings.Count(out, "\n") < want+1 {
		t.Fatalf("render malformed:\n%s", out)
	}
}
