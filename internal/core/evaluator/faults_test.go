package evaluator

import (
	"context"
	"math"
	"testing"

	"lambdatune/internal/backend/instrumented"
	"lambdatune/internal/engine"
	"lambdatune/internal/faults"
	"lambdatune/internal/obs"
)

// completedRuns counts the queries b ran to completion: run_query calls
// minus run_query errors, which are the interrupted ones.
func completedRuns(b *instrumented.Backend) int {
	st := b.Registry().Snapshot()
	return int(st["backend_run_query_calls_total"] - st["backend_run_query_errors_total"])
}

// abortThenRun finds a fault seed whose injector, at query-abort rate 0.5,
// aborts q's first execution under cfg and lets the retry through: the
// decision is keyed by the candidate's abort count, so the retry after one
// abort is a fresh decision.
func abortThenRun(t *testing.T, cfg *engine.Config, q *engine.Query) *faults.Injector {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		inj := faults.NewInjector(faults.Plan{QueryAbortRate: 0.5}, seed, nil)
		_, first := inj.EngineFault(faults.QueryAbort, cfg.ID, q.Name, 0)
		_, retry := inj.EngineFault(faults.QueryAbort, cfg.ID, q.Name, 1)
		if first && !retry {
			return inj
		}
	}
	t.Fatal("no seed aborts the first execution and passes the retry")
	return nil
}

func TestEvaluateAbortWastesFractionAndRetries(t *testing.T) {
	sim, w := setup(t)
	db := instrumented.Wrap(sim)
	cfg := &engine.Config{ID: "abort", Params: map[string]string{}}
	q := w.Queries[0]
	e := New(db)
	e.Faults = abortThenRun(t, cfg, q)
	if err := e.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	e.Trace = tr
	e.Span = tr.Start(nil, "candidate", 0)
	frac, _ := e.Faults.EngineFault(faults.QueryAbort, cfg.ID, q.Name, 0)
	full := db.QuerySeconds(q)

	meta := NewConfigMeta()
	e.Evaluate(context.Background(), cfg, []*engine.Query{q}, math.Inf(1), meta)
	if meta.IsComplete || meta.Completed[q.Name] || meta.Aborts != 1 {
		t.Fatalf("after the abort: %+v", meta)
	}
	if want := frac * full; math.Abs(db.Clock().Now()-want) > 1e-9 {
		t.Fatalf("clock %v, want %v wasted (frac %v of %v)", db.Clock().Now(), want, frac, full)
	}
	if completedRuns(db) != 0 {
		t.Fatal("an aborted query reached the backend")
	}
	e.Span.End(db.Clock().Now())
	if ev := tr.Records()[0].Events; len(ev) != 1 || ev[0].Name != "fault.query-abort" {
		t.Fatalf("candidate span events = %+v, want one fault.query-abort", ev)
	}

	// The next round retries the query under a fresh key and completes it.
	e.Span = nil
	e.Evaluate(context.Background(), cfg, []*engine.Query{q}, math.Inf(1), meta)
	if !meta.IsComplete || !meta.Completed[q.Name] || meta.Aborts != 1 {
		t.Fatalf("after the retry: %+v", meta)
	}
	if math.Abs(meta.Time-full) > 1e-9 {
		t.Fatalf("retry time %v, want %v", meta.Time, full)
	}
}

func TestEvaluateAbortIsCappedByTheBudget(t *testing.T) {
	db, w := setup(t)
	cfg := &engine.Config{ID: "capped", Params: map[string]string{}}
	q := w.Queries[0]
	e := New(db)
	e.Faults = faults.NewInjector(faults.Plan{QueryAbortRate: 1}, 1, nil)
	if err := e.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	frac, _ := e.Faults.EngineFault(faults.QueryAbort, cfg.ID, q.Name, 0)
	budget := db.QuerySeconds(q) / 4
	meta := NewConfigMeta()
	e.Evaluate(context.Background(), cfg, []*engine.Query{q}, budget, meta)
	if meta.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1", meta.Aborts)
	}
	if got, want := db.Clock().Now(), frac*budget; math.Abs(got-want) > 1e-12 || got > budget {
		t.Fatalf("abort wasted %v, want %v (frac %v of the %v budget)", got, want, frac, budget)
	}
}

func TestEvaluateIndexFailureLeavesNoIndex(t *testing.T) {
	db, w := setup(t)
	cfg := goodConfig()
	e := New(db)
	e.LazyIndexes = false
	e.Faults = faults.NewInjector(faults.Plan{IndexFailRate: 1}, 1, nil)
	if err := e.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	var want float64
	for i, ix := range cfg.Indexes {
		frac, fail := e.Faults.EngineFault(faults.IndexFail, cfg.ID, ix.Key(), i)
		if !fail {
			t.Fatalf("rate 1 passed the build of %s", ix.Key())
		}
		want += frac * db.IndexCreationSeconds(ix)
	}
	meta := NewConfigMeta()
	e.Evaluate(context.Background(), cfg, w.Queries[:1], math.Inf(1), meta)
	if meta.IndexFailures != len(cfg.Indexes) {
		t.Fatalf("index failures = %d, want %d", meta.IndexFailures, len(cfg.Indexes))
	}
	for _, ix := range cfg.Indexes {
		if db.HasIndex(ix) {
			t.Fatalf("failed build left %s behind", ix.Key())
		}
	}
	if math.Abs(meta.IndexTime-want) > 1e-9 {
		t.Fatalf("index time %v, want %v", meta.IndexTime, want)
	}
}

func TestEvaluateNilFaultsIsTheCleanPath(t *testing.T) {
	run := func(inj *faults.Injector) (*ConfigMeta, float64) {
		db, w := setup(t)
		e := New(db)
		e.Faults = inj
		cfg := goodConfig()
		if err := e.Apply(cfg); err != nil {
			t.Fatal(err)
		}
		meta := NewConfigMeta()
		e.Evaluate(context.Background(), cfg, w.Queries, math.Inf(1), meta)
		return meta, db.Clock().Now()
	}
	clean, cleanClock := run(nil)
	if !clean.IsComplete || clean.Aborts != 0 || clean.IndexFailures != 0 {
		t.Fatalf("nil injector: %+v", clean)
	}
	// An injector with no engine rates decides nothing either.
	llmOnly, llmClock := run(faults.NewInjector(faults.NewPlan(1, 0), 1, nil))
	if llmClock != cleanClock || llmOnly.Time != clean.Time || llmOnly.IndexTime != clean.IndexTime {
		t.Fatalf("LLM-only injector changed evaluation: clock %v vs %v", llmClock, cleanClock)
	}
}
