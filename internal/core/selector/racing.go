package selector

import (
	"context"
	"errors"
	"math"

	"lambdatune/internal/core/evaluator"
	"lambdatune/internal/core/race"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
)

// selectRacing is the successive-halving strategy: every surviving candidate
// runs a growing prefix of its DP schedule each rung, the online cost
// surrogate (race.Surrogate) ranks candidates by predicted full-workload
// time at each rung boundary, and the dominated half is eliminated. Once the
// field is down to FinalSurvivors, the exact Algorithm 2 path takes over —
// accumulated per-query times are exact, so the winner's reported workload
// time is identical to what a full evaluation would report for it.
//
// Determinism: rung membership, prefix contents, shared-index payers, and
// elimination decisions depend only on candidate order, metas, and plan
// costs — never on worker scheduling — so the same seed produces the same
// eliminations and the same selected configuration at any Parallelism.
func (s *Selector) selectRacing(ctx context.Context, candidates []*engine.Config, t, alpha float64, rounds int) (*engine.Config, error) {
	ropts := s.Opts.Racing.Norm()
	// Per-query observations feed the surrogate; replica evaluators inherit
	// the flag through NewPool.
	s.Eval.RecordTimes = true

	n := len(s.Workload)
	ladder := race.Ladder(n, ropts)
	survivors := candidates
	if st := s.resume; st != nil && st.Race != nil {
		s.raceState = st.Race.Clone()
		survivors = filterByIDs(candidates, s.raceState.Survivors)
	} else {
		s.raceState = &race.State{Survivors: configIDs(candidates)}
	}

	for !s.raceState.Done {
		if ropts.DisableElimination && s.raceState.Rung >= 1 {
			break
		}
		if !ropts.DisableElimination && len(survivors) <= ropts.FinalSurvivors {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, errors.Join(err, s.saveState(candidates, rounds, t, nil))
		}
		rounds++
		if s.Opts.MaxRounds > 0 && rounds > s.Opts.MaxRounds {
			return nil, ErrBudgetExhausted
		}
		rung := s.raceState.Rung
		prefix := ladder[min(rung, len(ladder)-1)]
		rungSpan, err := s.runRung(ctx, survivors, prefix, t, rung)
		if err != nil {
			rungSpan.End(s.Eval.DB.Clock().Now())
			return nil, errors.Join(err, s.saveState(candidates, rounds-1, t, nil))
		}
		if !ropts.DisableElimination {
			survivors = s.eliminate(candidates, survivors, ropts, rung, rungSpan)
		}
		t = s.adaptTimeout(survivors, t, rungSpan)
		rungSpan.End(s.Eval.DB.Clock().Now())
		// Rung budgets track the prefix growth (×Growth), not Algorithm 2's
		// ×α rounds: elimination ranks on partial observations plus the
		// surrogate, so rungs never need candidates to finish — escalating
		// budgets α-fast would just fully evaluate the survivors before the
		// exact final pass gets the chance to do it with best-based
		// tightening. The handoff continues the schedule from the last rung
		// budget, and Algorithm 2 escalates from there as usual.
		t *= ropts.Growth
		s.raceState = &race.State{Rung: rung + 1, Survivors: configIDs(survivors)}
		if err := s.saveState(candidates, rounds, t, nil); err != nil {
			return nil, err
		}
	}

	// Hand the survivors to the exact paper pass. Rung bookkeeping marked a
	// prefix pass "complete"; completion now means the whole workload, and
	// meta.Time is the exact accumulated time of the completed queries.
	s.raceState.Done = true
	survivors = filterByIDs(candidates, s.raceState.Survivors)
	for _, c := range survivors {
		m := s.Metas[c]
		m.IsComplete = len(m.Completed) == n
	}
	if s.parallelOK() {
		return s.selectParallel(ctx, survivors, t, alpha, rounds)
	}
	return s.selectSequential(ctx, survivors, t, alpha, rounds)
}

// runRung evaluates every survivor on its prefix-bounded todo list under one
// "rung" span, sharing index-build costs across the rung: the first
// candidate (in rung order) whose configuration carries an index key pays
// its build, every later candidate materializes it at zero virtual cost.
// The returned span is still open — elimination events land on it.
func (s *Selector) runRung(ctx context.Context, survivors []*engine.Config, prefix int, timeout float64, rung int) (*obs.Span, error) {
	clock := s.Eval.DB.Clock()
	s.Metrics.Counter("race_rungs_total").Inc()
	obs.Emitf(s.Reporter, clock.Now(), "rung", "rung %d: %d candidates on a %d-query prefix, timeout %.4gs",
		rung+1, len(survivors), prefix, timeout)
	var rungSpan *obs.Span
	if s.Span != nil {
		rungSpan = s.Trace.Start(s.Span, "rung", clock.Now(),
			obs.Int("rung", rung+1), obs.Int("prefix", prefix),
			obs.Int("survivors", len(survivors)), obs.Float("timeout", timeout))
	}

	// Static payer assignment: independent of worker count, so shared-build
	// accounting is parallelism-invariant.
	payer := map[string]string{}
	for _, c := range survivors {
		for _, ix := range c.Indexes {
			if _, ok := payer[ix.Key()]; !ok {
				payer[ix.Key()] = c.ID
			}
		}
	}

	tasks := make([]evaluator.Task, 0, len(survivors))
	for seq, c := range survivors {
		m := s.Metas[c]
		var span *obs.Span
		if rungSpan != nil {
			span = s.Trace.Start(rungSpan, "candidate", clock.Now(),
				obs.String("config", c.ID), obs.Int("seq", seq),
				obs.String("phase", "rung"), obs.Float("timeout", timeout))
		}
		if err := s.Eval.Apply(c); err != nil {
			// Unusable configuration: permanently incomplete, and the
			// surrogate will rank it last (predicted +Inf).
			m.IsComplete = false
			span.SetAttrs(obs.Bool("apply_failed", true))
			span.End(clock.Now())
			continue
		}
		order := s.Eval.Schedule(s.Workload, c)
		var todo []*engine.Query
		for _, q := range order[:min(prefix, len(order))] {
			if !m.Completed[q.Name] {
				todo = append(todo, q)
			}
		}
		if len(todo) == 0 {
			span.SetAttrs(obs.Bool("skipped", true))
			span.End(clock.Now())
			continue
		}
		var free map[string]bool
		for _, ix := range c.Indexes {
			if payer[ix.Key()] != c.ID {
				if free == nil {
					free = map[string]bool{}
				}
				free[ix.Key()] = true
			}
		}
		tasks = append(tasks, evaluator.Task{
			Config: c, Queries: todo, Timeout: timeout, Meta: m, Span: span, FreeIndexes: free,
		})
	}

	var err error
	if s.parallelOK() {
		pool := evaluator.NewPool(s.Eval, s.Opts.Parallelism)
		_, err = pool.Run(ctx, tasks)
	} else {
		err = s.runTasksOnPrimary(ctx, tasks)
	}
	return rungSpan, err
}

// runTasksOnPrimary is the sequential rung path: tasks run in order on the
// primary instance, under the rung's pre-built candidate spans.
func (s *Selector) runTasksOnPrimary(ctx context.Context, tasks []evaluator.Task) error {
	clock := s.Eval.DB.Clock()
	for _, task := range tasks {
		if err := ctx.Err(); err != nil {
			return err
		}
		task.Span.SetAttrs(obs.Int("worker", 0))
		if err := s.Eval.Apply(task.Config); err != nil {
			task.Meta.IsComplete = false
			task.Span.SetAttrs(obs.Bool("apply_failed", true))
			task.Span.End(clock.Now())
			continue
		}
		s.Eval.Span = task.Span
		s.Eval.FreeIndexes = task.FreeIndexes
		s.Eval.Evaluate(ctx, task.Config, task.Queries, task.Timeout, task.Meta)
		s.Eval.FreeIndexes = nil
		s.Eval.Span = nil
		task.Span.SetAttrs(obs.Bool("complete", task.Meta.IsComplete),
			obs.Float("time", task.Meta.Time), obs.Float("index_time", task.Meta.IndexTime))
		task.Span.End(clock.Now())
	}
	return ctx.Err()
}

// eliminate refits the surrogate from every observed (plan cost, seconds)
// pair — including candidates eliminated in earlier rungs, whose
// observations remain valid — then drops the dominated half of the current
// survivors. Refitting from scratch keeps the surrogate stateless: a resumed
// run reconstructs the identical fit from the checkpointed metas.
func (s *Selector) eliminate(candidates, survivors []*engine.Config, ropts race.Options, rung int, rungSpan *obs.Span) []*engine.Config {
	var sur race.Surrogate
	for _, c := range candidates {
		m := s.Metas[c]
		if m == nil || len(m.QueryTimes) == 0 {
			continue
		}
		if s.Eval.Apply(c) != nil {
			continue
		}
		for _, q := range s.Workload {
			if secs, ok := m.QueryTimes[q.Name]; ok {
				sur.Observe(s.Eval.DB.PlanCost(q), secs)
			}
		}
	}
	s.Metrics.Gauge("race_surrogate_beta").Set(sur.Beta())

	scored := make([]race.Candidate, len(survivors))
	for i, c := range survivors {
		m := s.Metas[c]
		pred := m.Time
		if err := s.Eval.Apply(c); err != nil {
			pred = math.Inf(1)
		} else {
			for _, q := range s.Workload {
				if !m.Completed[q.Name] {
					pred += sur.Predict(s.Eval.DB.PlanCost(q))
				}
			}
		}
		scored[i] = race.Candidate{ID: c.ID, Pos: i, Predicted: pred}
	}
	keep, drop := race.Eliminate(scored, ropts)

	now := s.Eval.DB.Clock().Now()
	for _, d := range drop {
		s.Metrics.Counter("race_eliminations_total").Inc()
		rungSpan.Event("race.eliminate", now,
			obs.String("config", d.ID), obs.Int("rung", rung+1), obs.Float("predicted", d.Predicted))
		obs.Emitf(s.Reporter, now, "eliminate", "rung %d eliminates %s (predicted %.4gs)", rung+1, d.ID, d.Predicted)
	}
	out := make([]*engine.Config, 0, len(keep))
	for _, k := range keep {
		out = append(out, survivors[k.Pos])
	}
	return out
}

// filterByIDs returns the candidates whose IDs appear in ids, preserving
// candidate order.
func filterByIDs(candidates []*engine.Config, ids []string) []*engine.Config {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	out := make([]*engine.Config, 0, len(ids))
	for _, c := range candidates {
		if want[c.ID] {
			out = append(out, c)
		}
	}
	return out
}

// configIDs lists candidate IDs in order.
func configIDs(cs []*engine.Config) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}
