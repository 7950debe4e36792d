package lambdatune

// Tests of the Options groups and their validation.

import (
	"errors"
	"math"
	"testing"
)

func TestValidateGroupedFields(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"racing defaults", Options{Evaluation: EvaluationOptions{Strategy: Racing}}, true},
		{"racing tuned", Options{Evaluation: EvaluationOptions{
			Strategy: Racing,
			Racing:   &RacingOptions{StartFraction: 0.25, Growth: 3, FinalSurvivors: 3},
		}}, true},
		{"racing options without racing strategy", Options{Evaluation: EvaluationOptions{
			Racing: &RacingOptions{StartFraction: 0.25},
		}}, false},
		{"bad strategy", Options{Evaluation: EvaluationOptions{Strategy: EvalStrategy(42)}}, false},
		{"bad start fraction", Options{Evaluation: EvaluationOptions{
			Strategy: Racing, Racing: &RacingOptions{StartFraction: 1.5},
		}}, false},
		{"bad growth", Options{Evaluation: EvaluationOptions{
			Strategy: Racing, Racing: &RacingOptions{Growth: 0.5},
		}}, false},
		{"negative final survivors", Options{Evaluation: EvaluationOptions{
			Strategy: Racing, Racing: &RacingOptions{FinalSurvivors: -1},
		}}, false},
		{"grouped resume without dir", Options{Durability: DurabilityOptions{Resume: true}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.o.Validate()
			if c.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !c.ok && !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("want ErrInvalidOptions, got %v", err)
			}
		})
	}
}

// TestTuneRacingStrategy: the racing strategy is reachable through the
// public API and returns a complete, exact result.
func TestTuneRacingStrategy(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Samples = 8
	opts.Evaluation.Strategy = Racing
	res, err := db.Tune(w, NewSimulatedLLM(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScript == "" || res.BestSeconds <= 0 {
		t.Fatalf("racing run returned no usable configuration: %+v", res)
	}
	// The winner's reported time is exact: re-measuring the returned script
	// on a fresh instance reproduces BestSeconds.
	db2, w2, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.ApplyScript(res.BestScript); err != nil {
		t.Fatal(err)
	}
	// Summation order differs (DP-schedule order vs workload order), so
	// allow float reassociation noise and nothing more.
	if got := db2.WorkloadSeconds(w2); math.Abs(got-res.BestSeconds) > 1e-9 {
		t.Errorf("re-measured workload time %v != reported BestSeconds %v", got, res.BestSeconds)
	}
	if res.Speedup() <= 1 {
		t.Errorf("racing-selected configuration is not an improvement: speedup %v", res.Speedup())
	}
	_ = w
}
