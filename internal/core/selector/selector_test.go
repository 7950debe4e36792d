package selector

import (
	"context"
	"math"
	"testing"

	"lambdatune/internal/backend"
	"lambdatune/internal/backend/instrumented"
	"lambdatune/internal/core/evaluator"
	"lambdatune/internal/engine"
	"lambdatune/internal/workload"
)

// completedRuns counts the queries b ran to completion: run_query calls
// minus run_query errors, which are the interrupted ones.
func completedRuns(b *instrumented.Backend) int {
	st := b.Registry().Snapshot()
	return int(st["backend_run_query_calls_total"] - st["backend_run_query_errors_total"])
}

func setup(t *testing.T) (*backend.Sim, []*engine.Query) {
	t.Helper()
	w := workload.TPCH(1)
	db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
	return db, w.Queries
}

func cfg(id string, params map[string]string, idx ...engine.IndexDef) *engine.Config {
	return &engine.Config{ID: id, Params: params, Indexes: idx}
}

func good() *engine.Config {
	return cfg("good", map[string]string{
		"shared_buffers": "15GB", "work_mem": "1GB",
		"effective_cache_size": "45GB", "random_page_cost": "1.1",
	},
		engine.NewIndexDef("lineitem", "l_orderkey"),
		engine.NewIndexDef("orders", "o_custkey"))
}

func bad() *engine.Config {
	return cfg("bad", map[string]string{
		"enable_hashjoin": "off", "work_mem": "64kB", "shared_buffers": "128MB",
	})
}

func TestSelectPicksFasterConfig(t *testing.T) {
	db, qs := setup(t)
	s := New(evaluator.New(db), qs, DefaultOptions())
	g, b := good(), bad()
	best := sel1(s, []*engine.Config{b, g})
	if best != g {
		t.Fatalf("selected %v", best)
	}
	if !s.Metas[g].IsComplete {
		t.Error("winner not marked complete")
	}
	if s.Metas[g].Time <= 0 {
		t.Error("winner time not recorded")
	}
}

func TestSelectSingleCandidate(t *testing.T) {
	db, qs := setup(t)
	s := New(evaluator.New(db), qs, DefaultOptions())
	g := good()
	if sel1(s, []*engine.Config{g}) != g {
		t.Fatal("single candidate not selected")
	}
}

func TestSelectEmpty(t *testing.T) {
	db, qs := setup(t)
	s := New(evaluator.New(db), qs, DefaultOptions())
	if sel1(s, nil) != nil {
		t.Fatal("empty candidate set returned a config")
	}
}

func TestSelectBoundedTuningTime(t *testing.T) {
	// Theorem 4.3: tuning time (query evaluation) ∈ O(k·α·C_best). With a
	// generous constant for index-creation overheads, the virtual clock
	// must stay within a small multiple of k·α·C_best.
	db, qs := setup(t)
	opts := DefaultOptions()
	s := New(evaluator.New(db), qs, opts)
	candidates := []*engine.Config{bad(), good(), cfg("mid", map[string]string{"work_mem": "64MB"})}
	start := db.Clock().Now()
	best := sel1(s, candidates)
	if best == nil {
		t.Fatal("no best")
	}
	elapsed := db.Clock().Now() - start
	cBest := s.Metas[best].Time
	bound := float64(len(candidates)) * opts.Alpha * cBest * 3
	if elapsed > bound {
		t.Errorf("tuning time %v exceeds 3·k·α·C_best = %v", elapsed, bound)
	}
}

func TestSelectAvoidsRedundantWork(t *testing.T) {
	// Completed queries must not re-run across rounds: the total number of
	// completed executions is bounded by k·|W|.
	sim, qs := setup(t)
	db := instrumented.Wrap(sim)
	s := New(evaluator.New(db), qs, DefaultOptions())
	candidates := []*engine.Config{good(), bad(), cfg("mid", map[string]string{"work_mem": "256MB"})}
	sel1(s, candidates)
	if got, limit := completedRuns(db), len(candidates)*len(qs); got > limit {
		t.Errorf("%d completed executions exceed k·|W| = %d", got, limit)
	}
}

func TestSelectProgressRecorded(t *testing.T) {
	db, qs := setup(t)
	s := New(evaluator.New(db), qs, DefaultOptions())
	sel1(s, []*engine.Config{good(), bad()})
	if len(s.Progress) == 0 {
		t.Fatal("no progress events")
	}
	// Progress is monotone: times decrease, clock increases.
	for i := 1; i < len(s.Progress); i++ {
		if s.Progress[i].BestTime >= s.Progress[i-1].BestTime {
			t.Error("best time not improving")
		}
		if s.Progress[i].Clock < s.Progress[i-1].Clock {
			t.Error("clock went backwards")
		}
	}
}

func TestSelectExampleFromPaper(t *testing.T) {
	// Paper Example 4.1: the first configuration to finish is not
	// necessarily optimal. We emulate it with two configs where the "slow
	// starter" wins overall. Config A executes all queries quickly except a
	// long tail; Config B is uniformly moderate. The selector must return
	// the one with minimal total time, whichever finishes first.
	db, qs := setup(t)
	s := New(evaluator.New(db), qs, DefaultOptions())
	a, b := good(), cfg("plain", map[string]string{"shared_buffers": "8GB", "work_mem": "512MB"})
	best := sel1(s, []*engine.Config{a, b})
	// Verify optimality directly: measure both configs' full workload time.
	eval := evaluator.New(db)
	timeOf := func(c *engine.Config) float64 {
		if err := eval.Apply(c); err != nil {
			t.Fatal(err)
		}
		m := evaluator.NewConfigMeta()
		eval.Evaluate(context.Background(), c, qs, math.Inf(1), m)
		return m.Time
	}
	ta, tb := timeOf(a), timeOf(b)
	wantBest := a
	if tb < ta {
		wantBest = b
	}
	if best != wantBest {
		t.Errorf("selected %s (times: good=%v plain=%v)", best.ID, ta, tb)
	}
}

func TestSelectMaxRounds(t *testing.T) {
	db, qs := setup(t)
	opts := DefaultOptions()
	opts.InitialTimeout = 1e-9
	opts.Alpha = 2
	opts.MaxRounds = 3
	s := New(evaluator.New(db), qs, opts)
	if got := sel1(s, []*engine.Config{bad()}); got != nil {
		t.Errorf("expected nil under round cap, got %v", got)
	}
}

func TestSelectAdaptiveTimeoutOffStillTerminates(t *testing.T) {
	db, qs := setup(t)
	opts := DefaultOptions()
	opts.AdaptiveTimeout = false
	s := New(evaluator.New(db), qs, opts)
	if sel1(s, []*engine.Config{good(), bad()}) == nil {
		t.Fatal("no winner with adaptive timeout off")
	}
}

func TestSelectAdaptiveTimeoutReducesClock(t *testing.T) {
	// §6.4.1: without index-creation-aware timeouts, tuning takes longer
	// because early rounds are dominated by reconfiguration.
	run := func(adaptive bool) float64 {
		db, qs := setup(t)
		opts := DefaultOptions()
		opts.InitialTimeout = 0.1 // tiny vs index creation times
		opts.AdaptiveTimeout = adaptive
		s := New(evaluator.New(db), qs, opts)
		sel1(s, []*engine.Config{good(), bad(), cfg("m", map[string]string{"work_mem": "128MB"},
			engine.NewIndexDef("lineitem", "l_partkey"))})
		return db.Clock().Now()
	}
	with := run(true)
	without := run(false)
	if with > without {
		t.Errorf("adaptive timeouts slower: %v vs %v", with, without)
	}
}

// TestSelectKeepsCompletedSurvivor: a candidate that has already completed
// the workload (a racing hand-off or a resume) but sits behind the round's
// first completer in throughput order must still compete in the final pass.
// b leads by throughput after one 1 ms query and completes first; a, done
// in 1 s, is the winner at every worker count.
func TestSelectKeepsCompletedSurvivor(t *testing.T) {
	for _, p := range []int{1, 2} {
		db, qs := setup(t)
		a, b := cfg("a", nil), cfg("b", nil)
		done := evaluator.NewConfigMeta()
		for _, q := range qs {
			done.Completed[q.Name] = true
		}
		done.Time, done.IsComplete = 1.0, true
		started := evaluator.NewConfigMeta()
		started.Completed[qs[0].Name] = true
		started.Time = 0.001
		opts := DefaultOptions()
		opts.Parallelism = p
		s := New(evaluator.New(db), qs, opts)
		s.Resume(&RoundState{Timeout: 1e9, Metas: map[string]*evaluator.ConfigMeta{"a": done, "b": started}})
		best, err := s.Select(context.Background(), []*engine.Config{a, b})
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if best != a {
			t.Errorf("parallelism %d: selected %v (b took %.4gs), want a (1s)", p, best, s.Metas[b].Time)
		}
	}
}
