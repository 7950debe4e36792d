package selector

import (
	"context"
	"errors"
	"testing"

	"lambdatune/internal/core/evaluator"
	"lambdatune/internal/engine"
)

// TestCheckpointAfterRounds verifies a finished run leaves a usable
// checkpoint behind: round count, next timeout, and per-config progress.
func TestCheckpointAfterRounds(t *testing.T) {
	db, qs := setup(t)
	s := New(evaluator.New(db), qs, DefaultOptions())
	g, b := good(), bad()
	if sel1(s, []*engine.Config{b, g}) != g {
		t.Fatal("selection failed")
	}
	st := s.Checkpoint()
	if st == nil {
		t.Fatal("no checkpoint after Select")
	}
	if st.Round < 1 || st.Timeout <= 0 {
		t.Fatalf("checkpoint = round %d timeout %v", st.Round, st.Timeout)
	}
	if st.Metas["good"] == nil || st.Metas["bad"] == nil {
		t.Fatalf("checkpoint metas missing entries: %v", st.Metas)
	}
	if st.Metas["good"] != s.Metas[g] {
		t.Fatal("checkpoint must share the live bookkeeping")
	}
}

// TestResumeSkipsCompletedWork is the aborted-round scenario: a first run is
// cut off by MaxRounds, its checkpoint feeds a second selector, and the
// second run finishes without re-executing the queries the first one
// completed.
func TestResumeSkipsCompletedWork(t *testing.T) {
	db, qs := setup(t)
	g, b := good(), bad()

	// First run: far too few rounds to complete any configuration.
	opts := DefaultOptions()
	opts.MaxRounds = 1
	s1 := New(evaluator.New(db), qs, opts)
	if best := sel1(s1, []*engine.Config{b, g}); best != nil {
		t.Fatalf("round-capped run should not finish, got %v", best)
	}
	st := s1.Checkpoint()
	if st == nil || st.Round != 1 {
		t.Fatalf("checkpoint = %+v", st)
	}
	doneBefore := len(st.Metas["good"].Completed) + len(st.Metas["bad"].Completed)
	execBefore := db.Executions()

	// Second run resumes on the same database with re-parsed candidates
	// (fresh pointers, same IDs — matching is by ID).
	g2, b2 := good(), bad()
	s2 := New(evaluator.New(db), qs, DefaultOptions())
	s2.Resume(st)
	best := sel1(s2, []*engine.Config{b2, g2})
	if best != g2 {
		t.Fatalf("resumed run selected %v", best)
	}
	// Progress carried over: the resumed metas are the checkpointed ones.
	if s2.Metas[g2] != st.Metas["good"] {
		t.Fatal("resumed run did not adopt checkpointed bookkeeping")
	}
	if doneBefore > 0 && db.Executions() == execBefore {
		t.Fatal("resumed run executed nothing, yet queries were still open")
	}
}

// TestResumeMatchesFreshRunResult checks resuming does not change the
// selected winner compared to an uninterrupted run.
func TestResumeMatchesFreshRunResult(t *testing.T) {
	// Uninterrupted reference run.
	dbA, qsA := setup(t)
	sA := New(evaluator.New(dbA), qsA, DefaultOptions())
	gA, bA := good(), bad()
	bestA := sel1(sA, []*engine.Config{bA, gA})

	// Interrupted-and-resumed run.
	dbB, qsB := setup(t)
	opts := DefaultOptions()
	opts.MaxRounds = 1
	s1 := New(evaluator.New(dbB), qsB, opts)
	g1, b1 := good(), bad()
	sel1(s1, []*engine.Config{b1, g1})
	s2 := New(evaluator.New(dbB), qsB, DefaultOptions())
	s2.Resume(s1.Checkpoint())
	bestB := sel1(s2, []*engine.Config{b1, g1})

	if bestA.ID != bestB.ID {
		t.Fatalf("fresh run picked %s, resumed run picked %s", bestA.ID, bestB.ID)
	}
	if tA, tB := sA.Metas[bestA].Time, s2.Metas[bestB].Time; tA != tB {
		t.Fatalf("winner times differ: %v vs %v", tA, tB)
	}
}

// TestResumeRestoresTimeoutSchedule verifies the resumed run continues the
// geometric schedule instead of restarting at InitialTimeout.
func TestResumeRestoresTimeoutSchedule(t *testing.T) {
	db, qs := setup(t)
	opts := DefaultOptions()
	opts.MaxRounds = 2
	s1 := New(evaluator.New(db), qs, opts)
	sel1(s1, []*engine.Config{bad()})
	st := s1.Checkpoint()
	if st == nil {
		t.Fatal("no checkpoint")
	}
	if st.Timeout <= opts.InitialTimeout {
		t.Fatalf("checkpoint timeout %v should exceed the initial %v",
			st.Timeout, opts.InitialTimeout)
	}
}

// TestCanceledRoundStopsEvaluating: on one worker, a round canceled while a
// candidate runs stops there. No later candidate is applied or evaluated,
// so with eager index creation none of them builds an index: the virtual
// clock and every candidate's IndexTime stay where the canceled query left
// them, and the checkpoint carries no extra charge into a resumed run.
func TestCanceledRoundStopsEvaluating(t *testing.T) {
	db, qs := setup(t)
	candidates := []*engine.Config{
		cfg("c1", map[string]string{"work_mem": "64MB"}, engine.NewIndexDef("lineitem", "l_partkey")),
		cfg("c2", map[string]string{"work_mem": "256MB"}, engine.NewIndexDef("orders", "o_custkey")),
		cfg("c3", map[string]string{"work_mem": "1GB"}, engine.NewIndexDef("partsupp", "ps_suppkey")),
		cfg("c4", map[string]string{"shared_buffers": "8GB"}, engine.NewIndexDef("customer", "c_nationkey")),
	}
	ev := evaluator.New(db)
	ev.LazyIndexes = false
	s := New(ev, qs, DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		execs     int
		wantClock float64
		wantIndex = map[string]float64{}
	)
	db.SetExecHook(func(q *engine.Query, seconds float64) {
		if execs++; execs != 5 {
			return
		}
		cancel()
		// The query in flight still completes; nothing runs after it.
		wantClock = db.Clock().Now() + seconds
		for _, c := range candidates {
			wantIndex[c.ID] = s.Metas[c].IndexTime
		}
	})
	if _, err := s.Select(ctx, candidates); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if execs != 5 {
		t.Fatalf("%d query executions, want 5 (none after the cancel)", execs)
	}
	if got := db.Clock().Now(); got != wantClock {
		t.Errorf("clock %v after the cancel, want %v", got, wantClock)
	}
	for _, c := range candidates {
		if got := s.Checkpoint().Metas[c.ID].IndexTime; got != wantIndex[c.ID] {
			t.Errorf("%s: IndexTime %v in the checkpoint, want %v", c.ID, got, wantIndex[c.ID])
		}
	}
}

// TestCanceledReplicaRoundFoldsNothing: on replicas a canceled round folds
// nothing into the best, even a candidate that completed before the cancel
// landed, so the checkpoint is the previous round's. On one worker the
// canceled candidate is folded like any other.
func TestCanceledReplicaRoundFoldsNothing(t *testing.T) {
	for p, wantBest := range map[int]string{1: "good", 2: ""} {
		db, qs := setup(t)
		opts := DefaultOptions()
		opts.InitialTimeout = 1e9
		opts.Parallelism = p
		s := New(evaluator.New(db), qs, opts)
		ctx, cancel := context.WithCancel(context.Background())
		execs := 0
		// Snapshots inherit the hook; the one task runs on one goroutine.
		db.SetExecHook(func(*engine.Query, float64) {
			if execs++; execs == len(qs) {
				cancel()
			}
		})
		if _, err := s.Select(ctx, []*engine.Config{good()}); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", p, err)
		}
		cancel()
		st := s.Checkpoint()
		if !st.Metas["good"].IsComplete {
			t.Fatalf("parallelism %d: the candidate did not complete before the cancel", p)
		}
		if st.Round != 0 || st.BestID != wantBest {
			t.Errorf("parallelism %d: checkpoint round %d best %q, want round 0 best %q", p, st.Round, st.BestID, wantBest)
		}
	}
}
