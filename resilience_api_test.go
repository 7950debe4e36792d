package lambdatune

import (
	"testing"
)

// TestTemperatureZeroIsGreedy is the regression test for the zero-value bug:
// Temperature 0 must reach the LLM as greedy decoding, not be silently
// replaced by the 0.7 default.
func TestTemperatureZeroIsGreedy(t *testing.T) {
	tune := func(temp float64) string {
		db, w, err := Benchmark("tpch-1", Postgres)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Temperature = temp
		res, err := db.Tune(w, NewSimulatedLLM(7), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.BestScript
	}
	// At temperature 0 the simulated LLM is deterministic per call, so all 5
	// samples collapse to the same script regardless of seed.
	if a, b := tune(0), tune(0); a != b {
		t.Fatalf("temperature 0 not deterministic:\n%s\nvs\n%s", a, b)
	}
	if zero, def := tune(0), tune(0.7); zero == def {
		t.Fatal("temperature 0 produced the 0.7-default result — zero value was dropped")
	}
	if neg, def := tune(-1), tune(0.7); neg != def {
		t.Fatal("negative temperature should inherit the default")
	}
}

// TestTuneWithFaultPlan exercises the public fault-injection path: faults
// fire, the resilient layer absorbs them, and the result is still usable.
func TestTuneWithFaultPlan(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Seed = 2 // a seed whose fault stream exercises retries and the breaker
	opts.Faults = &FaultPlan{LLMRate: 0.3, EngineRate: 0.1}
	opts.Resilience = &ResilienceOptions{}
	res, err := db.Tune(w, NewSimulatedLLM(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScript == "" || res.Speedup() < 1 {
		t.Fatalf("degraded run unusable: speedup=%v", res.Speedup())
	}
	if !res.Faults.Any() {
		t.Fatalf("fault report empty: %+v", res.Faults)
	}
	if res.Faults.QueryAborts == 0 && res.Faults.IndexFailures == 0 &&
		res.Faults.LLMFailures == 0 {
		t.Fatalf("no faults recorded at 30%%/10%%: %+v", res.Faults)
	}
	if res.Faults.String() == "" {
		t.Fatal("String() empty")
	}
}

// TestInstrumentedFaultRunMatchesPlain: the instrumented decorator leaves a
// fault-injected run untouched — the evaluator decides engine faults above
// the backend, so the decorator never sees them, and the run selects the
// same configuration, costs the same virtual time and survives the same
// faults with and without Instrument. Parallelism 4 runs the faults on
// replicas, through the decorator's snapshots.
func TestInstrumentedFaultRunMatchesPlain(t *testing.T) {
	tune := func(instrument bool) *Result {
		db, w, err := Benchmark("tpch-1", Postgres)
		if err != nil {
			t.Fatal(err)
		}
		if instrument {
			db.Instrument()
		}
		opts := DefaultOptions()
		opts.Seed = 2
		opts.Evaluation.Parallelism = 4
		opts.Faults = &FaultPlan{LLMRate: 0.3, EngineRate: 0.1, Seed: 2}
		opts.Resilience = &ResilienceOptions{}
		res, err := db.Tune(w, NewSimulatedLLM(2), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, inst := tune(false), tune(true)
	if resultKey(inst) != resultKey(plain) {
		t.Errorf("instrumented run differs:\n%s\nvs plain\n%s", resultKey(inst), resultKey(plain))
	}
	if inst.Faults != plain.Faults {
		t.Errorf("instrumented fault report %+v, plain %+v", inst.Faults, plain.Faults)
	}
	if plain.Faults.QueryAborts+plain.Faults.IndexFailures == 0 {
		t.Fatalf("no engine faults fired at 10%%: %+v", plain.Faults)
	}
}

// TestTuneCleanRunReportsNoFaults: without a fault plan the report stays
// zero-valued.
func TestTuneCleanRunReportsNoFaults(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Resilience = &ResilienceOptions{}
	res, err := db.Tune(w, NewSimulatedLLM(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Any() {
		t.Fatalf("clean run reported faults: %+v", res.Faults)
	}
	if res.Faults.LLMCalls != 5 {
		t.Fatalf("LLMCalls = %d, want 5", res.Faults.LLMCalls)
	}
}
