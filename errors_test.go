package lambdatune

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"defaults", DefaultOptions(), true},
		{"negative samples", Options{Samples: -1}, false},
		{"negative token budget", Options{TokenBudget: -5}, false},
		{"negative timeout", Options{Evaluation: EvaluationOptions{InitialTimeout: -1}}, false},
		{"alpha below two", Options{Evaluation: EvaluationOptions{Alpha: 1.5}}, false},
		{"alpha zero ok", Options{Evaluation: EvaluationOptions{Alpha: 0}}, true},
		{"negative parallelism", Options{Evaluation: EvaluationOptions{Parallelism: -2}}, false},
		{"parallelism ok", Options{Evaluation: EvaluationOptions{Parallelism: 8}}, true},
		{"negative temperature ok", Options{Temperature: -1}, true},
		{"bad llm fault rate", Options{Faults: &FaultPlan{LLMRate: 1.5}}, false},
		{"bad engine fault rate", Options{Faults: &FaultPlan{EngineRate: -0.1}}, false},
		{"fault rates ok", Options{Faults: &FaultPlan{LLMRate: 0.3, EngineRate: 0.1}}, true},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: want error", tc.name)
			} else if !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("%s: error %v does not match ErrInvalidOptions", tc.name, err)
			}
		}
	}
}

func TestTuneContextRejectsInvalidOptions(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Evaluation.Parallelism = -1
	if _, err := db.TuneContext(context.Background(), w, NewSimulatedLLM(1), opts); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}
	if _, err := db.TuneContext(context.Background(), w, nil, DefaultOptions()); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("nil client: err = %v, want ErrInvalidOptions", err)
	}
}

func TestTuneContextEmptyWorkload(t *testing.T) {
	db, _, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.TuneContext(context.Background(), nil, NewSimulatedLLM(1), DefaultOptions()); !errors.Is(err, ErrEmptyWorkload) {
		t.Fatalf("err = %v, want ErrEmptyWorkload", err)
	}
}

// TestTuneContextNonFiniteCost: a twenty-way cartesian product of 4e18-row
// tables overflows every cost estimate to +Inf. Planning must still produce
// a plan, and tuning must refuse the workload up front instead of running
// selection against an unmeasurable baseline.
func TestTuneContextNonFiniteCost(t *testing.T) {
	tables := make([]Table, 20)
	names := make([]string, len(tables))
	for i := range tables {
		names[i] = fmt.Sprintf("t%d", i)
		tables[i] = Table{Name: names[i], Rows: 4e18, Columns: []Column{{Name: "c", WidthBytes: 1, Distinct: 10}}}
	}
	db, err := NewDatabase(Postgres, "overflow", tables, DefaultHardware)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ParseWorkload("overflow", map[string]string{"q": "SELECT * FROM " + strings.Join(names, ", ")})
	if err != nil {
		t.Fatal(err)
	}
	if secs := db.WorkloadSeconds(w); !math.IsInf(secs, 1) {
		t.Fatalf("WorkloadSeconds = %v, want +Inf", secs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := db.TuneContext(ctx, w, NewSimulatedLLM(1), DefaultOptions()); !errors.Is(err, ErrNonFiniteCost) {
		t.Fatalf("err = %v, want ErrNonFiniteCost", err)
	}
	if ctx.Err() != nil {
		t.Fatal("TuneContext returned only at the deadline")
	}
}

// garbageClient returns prose; every sample is unparseable.
type garbageClient struct{}

func (garbageClient) Name() string { return "garbage" }
func (garbageClient) Complete(context.Context, string) (string, error) {
	return "I am sorry, I cannot help with that.", nil
}

func TestTuneNoUsableSample(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.TuneContext(context.Background(), w, garbageClient{}, DefaultOptions())
	if !errors.Is(err, ErrNoUsableSample) {
		t.Fatalf("err = %v, want ErrNoUsableSample", err)
	}
	// The aggregate wraps the typed per-sample failures.
	var rejected *ConfigRejectedError
	if !errors.As(err, &rejected) {
		t.Fatalf("err chain is missing *ConfigRejectedError: %v", err)
	}
	if rejected.Reason == "" {
		t.Error("ConfigRejectedError carries no reason")
	}
}

func TestApplyScriptConfigRejected(t *testing.T) {
	db, _, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	err = db.ApplyScript("DROP TABLE lineitem;")
	var rejected *ConfigRejectedError
	if !errors.As(err, &rejected) {
		t.Fatalf("err = %v, want *ConfigRejectedError", err)
	}
	if rejected.Stmt == "" {
		t.Error("rejected statement not recorded")
	}
}
