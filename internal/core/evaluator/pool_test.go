package evaluator

import (
	"context"
	"fmt"
	"math"
	"testing"

	"lambdatune/internal/backend"
	"lambdatune/internal/engine"
)

func poolConfigs(n int) []*engine.Config {
	params := []map[string]string{
		{"work_mem": "256MB"},
		{"work_mem": "1GB", "shared_buffers": "8GB"},
		{"shared_buffers": "15GB", "effective_cache_size": "45GB"},
		{"random_page_cost": "1.1"},
		{"work_mem": "64MB", "random_page_cost": "2.0"},
		{"shared_buffers": "4GB", "work_mem": "512MB"},
	}
	var out []*engine.Config
	for i := 0; i < n; i++ {
		out = append(out, &engine.Config{
			ID:     fmt.Sprintf("c%d", i),
			Params: params[i%len(params)],
		})
	}
	return out
}

// runPool evaluates the configs once with the given worker count on a fresh
// database and returns the per-config metas plus the round's elapsed time.
func runPool(t *testing.T, workers int) (map[string]*ConfigMeta, float64, *backend.Sim) {
	t.Helper()
	db, w := setup(t)
	pool := NewPool(New(db), workers)
	metas := map[string]*ConfigMeta{}
	var tasks []Task
	for _, c := range poolConfigs(6) {
		m := NewConfigMeta()
		metas[c.ID] = m
		tasks = append(tasks, Task{Config: c, Queries: w.Queries, Timeout: math.Inf(1), Meta: m})
	}
	elapsed, err := pool.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	return metas, elapsed, db
}

// TestPoolMatchesSequentialResults pins per-candidate determinism: every
// worker count produces the exact same runtimes and completion sets as
// workers=1 (the primary itself), because each candidate runs sequentially
// on its own instance.
// Run under -race this doubles as the pool's data-race test.
func TestPoolMatchesSequentialResults(t *testing.T) {
	base, _, _ := runPool(t, 1)
	for _, workers := range []int{2, 4, 8} {
		got, _, _ := runPool(t, workers)
		for id, m := range base {
			g := got[id]
			if g.Time != m.Time || g.IsComplete != m.IsComplete ||
				g.IndexTime != m.IndexTime || len(g.Completed) != len(m.Completed) {
				t.Errorf("workers=%d config %s: got {%v %v %v %d}, want {%v %v %v %d}",
					workers, id, g.Time, g.IsComplete, g.IndexTime, len(g.Completed),
					m.Time, m.IsComplete, m.IndexTime, len(m.Completed))
			}
		}
	}
}

// TestPoolClockMergeIsMaxOverWorkers: the primary clock advances by the
// slowest worker's elapsed time, never by the sum of all candidates.
func TestPoolClockMergeIsMaxOverWorkers(t *testing.T) {
	metas, elapsedSeq, dbSeq := runPool(t, 1)
	if dbSeq.Clock().Now() != elapsedSeq {
		t.Fatalf("workers=1: clock %v != elapsed %v", dbSeq.Clock().Now(), elapsedSeq)
	}
	var total float64
	for _, m := range metas {
		total += m.Time + m.IndexTime
	}
	_, elapsedPar, dbPar := runPool(t, 3)
	if dbPar.Clock().Now() != elapsedPar {
		t.Fatalf("workers=3: clock %v != elapsed %v", dbPar.Clock().Now(), elapsedPar)
	}
	if elapsedPar >= total {
		t.Fatalf("workers=3 elapsed %v should be below the sequential total %v", elapsedPar, total)
	}
	if elapsedPar <= 0 {
		t.Fatal("parallel round reported zero elapsed time")
	}
}

// TestPoolAbsorbsCounters: executions on worker snapshots fold back into the
// primary's counters.
func TestPoolAbsorbsCounters(t *testing.T) {
	_, _, db := runPool(t, 4)
	if db.Executions() == 0 {
		t.Fatal("worker executions were not absorbed into the primary")
	}
}

// TestPoolBadConfigMarkedIncomplete: an unusable configuration is marked
// permanently incomplete on replicas, as on the primary.
func TestPoolBadConfigMarkedIncomplete(t *testing.T) {
	db, w := setup(t)
	pool := NewPool(New(db), 2)
	bad := &engine.Config{ID: "bad", Params: map[string]string{"work_mem": "banana"}}
	good := &engine.Config{ID: "good", Params: map[string]string{"work_mem": "256MB"}}
	mBad, mGood := NewConfigMeta(), NewConfigMeta()
	_, err := pool.Run(context.Background(), []Task{
		{Config: bad, Queries: w.Queries, Timeout: math.Inf(1), Meta: mBad},
		{Config: good, Queries: w.Queries, Timeout: math.Inf(1), Meta: mGood},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mBad.IsComplete {
		t.Error("unusable configuration reported complete")
	}
	if !mGood.IsComplete {
		t.Error("good configuration did not complete")
	}
}

// TestPoolCancellation: on one worker the pool runs on the primary itself.
// A cancelled context stops it before the next query and the next task,
// returns the context error, and leaves partial progress resumable.
func TestPoolCancellation(t *testing.T) {
	db, w := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the engine after a few executions.
	var execs int
	db.SetExecHook(func(q *engine.Query, seconds float64) {
		execs++
		if execs >= 3 {
			cancel()
		}
	})
	pool := NewPool(New(db), 1)
	m, next := NewConfigMeta(), NewConfigMeta()
	cs := poolConfigs(2)
	_, err := pool.Run(ctx, []Task{
		{Config: cs[0], Queries: w.Queries, Timeout: math.Inf(1), Meta: m},
		{Config: cs[1], Queries: w.Queries, Timeout: math.Inf(1), Meta: next},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(next.Completed) != 0 || next.IsComplete {
		t.Error("the task after the cancel ran")
	}
	if m.IsComplete {
		t.Error("cancelled evaluation reported complete")
	}
	if len(m.Completed) == 0 {
		t.Error("partial progress lost on cancellation")
	}
	if len(m.Completed) >= len(w.Queries) {
		t.Error("cancellation did not stop the evaluation early")
	}
}
