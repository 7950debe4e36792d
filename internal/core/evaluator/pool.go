package evaluator

import (
	"context"
	"sync"

	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
)

// Pool evaluates the candidate configurations of one selector round. With
// more than one worker it runs them concurrently, one backend snapshot per
// worker — modeling the N parallel DBMS replicas the paper's EC2 testbed
// would allow (DESIGN.md §7). With one worker it is the primary instance
// itself: tasks run in order on the primary evaluator, with no snapshot.
//
// Determinism: tasks are assigned statically (task i runs on worker i mod
// workers) and every worker processes its tasks sequentially on its own
// snapshot, so per-candidate results are independent of goroutine
// scheduling. Each ConfigMeta, and each candidate span with its children, is
// touched by exactly one worker per round, so the trace shape is
// deterministic too.
//
// Clock-merge rule: per-candidate runtimes come from each worker's own
// virtual clock; the round's elapsed tuning time is the max over workers —
// replicas run in parallel, so the round is as long as its slowest replica.
type Pool struct {
	// ev is the primary evaluator: snapshots are taken from its backend,
	// whose clock advances by each round's merged elapsed time, and every
	// worker evaluates with a copy of its settings — including the shared
	// memo (concurrency-safe, so one worker's result serves every replica
	// recomputing the same inputs), the tracer, and the job's slot gate.
	ev      *Evaluator
	workers int
}

// NewPool builds a pool that evaluates with e's settings on e's database.
// Workers 1 or fewer: the primary itself.
func NewPool(e *Evaluator, workers int) *Pool {
	return &Pool{ev: e, workers: max(workers, 1)}
}

// Workers is the pool's width; 1 means the primary itself.
func (p *Pool) Workers() int { return p.workers }

// Task is one candidate evaluation of a round: run Config against the
// not-yet-completed Queries with the per-configuration Timeout, updating
// Meta in place. Tasks with Timeout <= 0 are provably suboptimal
// (Algorithm 2's best-based tightening) and are skipped.
type Task struct {
	Config  *engine.Config
	Queries []*engine.Query
	Timeout float64
	Meta    *ConfigMeta
	// Span, when set, is the candidate's trace span: the owning worker tags
	// it with its id, fills the verdict attributes, records query and
	// index-build children under it, and ends it.
	Span *obs.Span
	// FreeIndexes lists index keys whose build cost another candidate in the
	// same racing rung pays; this task creates them at zero virtual cost
	// (see Evaluator.FreeIndexes). Nil outside racing rungs.
	FreeIndexes map[string]bool
}

// Run evaluates one round's tasks and returns the round's elapsed virtual
// time. On one worker the tasks run in order on the primary, whose clock
// advances as they run. On more, the elapsed time is the max over workers,
// and Run advances the primary clock by it. A task whose Apply fails has its
// meta marked incomplete, and the worker moves on.
//
// Cancelling ctx stops every worker before its next query execution and
// before its next task; Run still keeps the partial progress (metas stay
// resumable) and returns ctx.Err().
func (p *Pool) Run(ctx context.Context, tasks []Task) (float64, error) {
	if p.workers == 1 {
		clock := p.ev.DB.Clock()
		start := clock.Now()
		runTasks(ctx, p.ev, tasks, 0, 1)
		return clock.Now() - start, ctx.Err()
	}
	if len(tasks) == 0 {
		return 0, ctx.Err()
	}
	primary := p.ev.DB
	workers := min(p.workers, len(tasks))

	elapsed := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		snap := primary.Snapshot()
		// The worker's evaluator copies the primary's settings; its
		// per-pass state (candidate span, free indexes) starts empty.
		ev := *p.ev
		ev.DB, ev.Span, ev.FreeIndexes, ev.freeCreated = snap, nil, nil, nil
		wg.Add(1)
		go func(w int, ev *Evaluator) {
			defer wg.Done()
			start := ev.DB.Clock().Now()
			runTasks(ctx, ev, tasks, w, workers)
			elapsed[w] = ev.DB.Clock().Now() - start
		}(w, &ev)
	}
	wg.Wait()

	var roundElapsed float64
	for _, e := range elapsed {
		if e > roundElapsed {
			roundElapsed = e
		}
	}
	primary.Clock().Advance(roundElapsed)
	return roundElapsed, ctx.Err()
}

// runTasks runs worker's share of tasks — tasks[worker], tasks[worker+step],
// … — in order on ev, stopping before the next task once ctx is done.
func runTasks(ctx context.Context, ev *Evaluator, tasks []Task, worker, step int) {
	for i := worker; i < len(tasks) && ctx.Err() == nil; i += step {
		runTask(ctx, ev, tasks[i], worker)
	}
}

// runTask applies and evaluates one candidate, marking unusable
// configurations permanently incomplete. The task's candidate span (if any)
// is owned by this worker from here on: it gets the worker id, the
// evaluation children, the verdict attributes, and its End — all stamped
// from the worker's own clock (a replica's, or the primary's on one worker).
func runTask(ctx context.Context, ev *Evaluator, t Task, worker int) {
	clock := ev.DB.Clock()
	t.Span.SetAttrs(obs.Int("worker", worker))
	ev.Span = t.Span
	defer func() { ev.Span = nil }()
	if t.Timeout <= 0 {
		t.Span.SetAttrs(obs.Bool("skipped", true))
		t.Span.End(clock.Now())
		return
	}
	if err := ev.Apply(t.Config); err != nil {
		t.Meta.IsComplete = false
		t.Span.SetAttrs(obs.Bool("apply_failed", true))
		t.Span.End(clock.Now())
		return
	}
	ev.FreeIndexes = t.FreeIndexes
	defer func() { ev.FreeIndexes = nil }()
	ev.Evaluate(ctx, t.Config, t.Queries, t.Timeout, t.Meta)
	t.Span.SetAttrs(obs.Bool("complete", t.Meta.IsComplete),
		obs.Float("time", t.Meta.Time), obs.Float("index_time", t.Meta.IndexTime))
	t.Span.End(clock.Now())
}
