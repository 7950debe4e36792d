// Package selector implements λ-Tune's configuration selection component
// (paper §4, Algorithm 2): candidate configurations are evaluated in rounds
// under geometrically increasing timeouts, with reconfiguration-aware
// timeout adaptation and best-configuration-based timeout tightening. The
// scheme bounds total tuning time by O(k·α·C_best) — Theorem 4.3.
//
// With Options.Parallelism > 1 the candidates of each round are evaluated
// concurrently by an evaluator.Pool, one engine snapshot per worker; the
// round's elapsed tuning time is the max over workers (N parallel DBMS
// replicas). Selection decisions are parallelism-invariant: every
// parallelism picks the same best configuration with the same workload time,
// because the winner is always the candidate with the minimal full-workload
// execution time among those that can complete (see DESIGN.md §7 for the
// argument). Parallelism 1 follows the sequential path byte-identically.
package selector

import (
	"context"
	"errors"
	"math"
	"sort"

	"lambdatune/internal/core/evaluator"
	"lambdatune/internal/core/race"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
)

// Strategy selects how candidates are evaluated.
type Strategy int

const (
	// FullEvaluation is the paper's Algorithm 2 verbatim: every candidate
	// races the full workload under the geometric timeout schedule.
	FullEvaluation Strategy = iota
	// Racing evaluates candidates on growing DP-schedule prefixes and
	// eliminates the surrogate-dominated half each rung, reserving the exact
	// Algorithm 2 pass for the final survivors (see the race package).
	Racing
)

// ErrBudgetExhausted reports that the evaluation budget (Options.MaxRounds)
// was exhausted before any candidate completed the workload. The selector's
// checkpoint remains valid: feed it to Resume with a larger budget to
// continue instead of restarting.
var ErrBudgetExhausted = errors.New("selector: evaluation budget exhausted before any candidate completed")

// Best tracks the best fully evaluated configuration.
type Best struct {
	Time   float64
	Config *engine.Config
}

// ProgressEvent records tuning progress for convergence plots: at virtual
// time Clock, the best known full-workload execution time was BestTime.
type ProgressEvent struct {
	Clock    float64
	BestTime float64
	ConfigID string
}

// Options configures the selector.
type Options struct {
	// InitialTimeout is t, the first round's per-configuration timeout in
	// simulated seconds (paper §6.1 uses 10).
	InitialTimeout float64
	// Alpha is the geometric timeout growth factor (paper §6.1 uses 10;
	// Theorem 4.3 requires α ≥ 2).
	Alpha float64
	// AdaptiveTimeout enables the reconfiguration-overhead adaptation of
	// Algorithm 2 line 14 (the §6.4.1 ablation switches it off).
	AdaptiveTimeout bool
	// MaxRounds caps the number of rounds as a safety valve (0 = unlimited).
	MaxRounds int
	// Parallelism is the number of concurrent evaluation workers (simulated
	// DBMS replicas). 0 or 1 evaluates sequentially, reproducing the
	// single-instance results byte-identically; higher values evaluate each
	// round's candidates concurrently with identical selection decisions.
	// When a fault injector is installed on the database the selector always
	// uses the sequential path — injected fault sequences are defined on the
	// primary instance's clock and cannot be replayed across replicas.
	Parallelism int
	// Strategy selects full (paper-exact) or racing evaluation. Racing is
	// off by default; the selected configuration's reported workload time is
	// exact under both strategies.
	Strategy Strategy
	// Racing tunes the racing strategy (zero value = race.DefaultOptions).
	Racing race.Options
}

// DefaultOptions matches the paper's experimental setup.
func DefaultOptions() Options {
	return Options{InitialTimeout: 10, Alpha: 10, AdaptiveTimeout: true}
}

// RoundState is the selector's resumable checkpoint: the bookkeeping of a
// run that was interrupted (round cap, crash, cancellation, injected
// faults). Feeding it back via Resume continues evaluation from the last
// finished round instead of restarting — completed queries are never
// re-executed, and the timeout schedule picks up where it stopped.
type RoundState struct {
	// Round is the number of evaluation rounds already finished.
	Round int
	// Timeout is the next round's per-configuration timeout.
	Timeout float64
	// BestID / BestTime record the best fully evaluated configuration at
	// checkpoint time ("" = none yet). A checkpoint taken after the
	// completion round restores the best directly, so the resumed run jumps
	// straight to the tightened final pass — exactly where the uninterrupted
	// run was — instead of re-running a round the original never ran.
	BestID   string
	BestTime float64
	// Metas carries per-configuration progress, keyed by Config.ID (IDs,
	// not pointers, so a checkpoint survives re-parsing the candidates).
	Metas map[string]*evaluator.ConfigMeta
	// Race is the racing strategy's rung bookkeeping (nil for full
	// evaluation): which rung to run next and who is still in the race. A
	// resumed racing run re-enters the ladder at the checkpointed rung with
	// the checkpointed survivor set.
	Race *race.State
}

// Selector runs Algorithm 2 over a fixed workload and candidate set.
type Selector struct {
	Eval     *evaluator.Evaluator
	Workload []*engine.Query
	Opts     Options
	// Metas exposes the per-configuration bookkeeping after Select returns.
	Metas map[*engine.Config]*evaluator.ConfigMeta
	// Progress records best-so-far events on the virtual clock.
	Progress []ProgressEvent

	// Trace/Span/Reporter/Metrics are the optional telemetry hooks the
	// tuner installs after New: Span is the "selection" span rounds nest
	// under, Reporter receives live round/candidate narration (emitted only
	// from the coordinating goroutine, so event order is deterministic),
	// Metrics feeds the tuner_* counters. All nil-safe.
	Trace    *obs.Tracer
	Span     *obs.Span
	Reporter obs.ProgressSink
	Metrics  *obs.Registry

	// OnCheckpoint, when set, runs after every round-state save — the tuner
	// installs the durable-checkpoint writer here. A non-nil error aborts
	// the selection with that error (the in-memory checkpoint is already
	// recorded, so the partial run stays resumable).
	OnCheckpoint func(*RoundState) error

	resume *RoundState
	state  *RoundState
	// raceState is the live racing bookkeeping, cloned into every saved
	// RoundState (nil under full evaluation).
	raceState *race.State
}

// New creates a selector.
func New(eval *evaluator.Evaluator, w []*engine.Query, opts Options) *Selector {
	return &Selector{Eval: eval, Workload: w, Opts: opts}
}

// Resume installs a checkpoint from an earlier interrupted run; the next
// Select call continues from it. Candidates are matched to checkpointed
// progress by Config.ID.
func (s *Selector) Resume(st *RoundState) { s.resume = st }

// Checkpoint returns the selector's current round state (nil before any
// round ran). It shares the live ConfigMeta bookkeeping, so it reflects all
// progress up to the moment Select returned — including partial progress of
// a round that was interrupted by cancellation.
func (s *Selector) Checkpoint() *RoundState { return s.state }

// saveState records the checkpoint after a finished round, marks the save
// on the selection span, and hands the state to the OnCheckpoint hook (the
// durable writer). The hook's error is returned so a failed durable write —
// or a chaos-harness kill point — aborts the selection.
func (s *Selector) saveState(candidates []*engine.Config, rounds int, timeout float64, best *Best) error {
	st := &RoundState{Round: rounds, Timeout: timeout, Metas: map[string]*evaluator.ConfigMeta{}, Race: s.raceState.Clone()}
	if best != nil && best.Config != nil && !math.IsInf(best.Time, 1) {
		st.BestID = best.Config.ID
		st.BestTime = best.Time
	}
	for _, c := range candidates {
		st.Metas[c.ID] = s.Metas[c]
	}
	s.state = st
	s.Span.Event("checkpoint", s.Eval.DB.Clock().Now(),
		obs.Int("round", rounds), obs.Float("timeout", timeout))
	if s.OnCheckpoint != nil {
		return s.OnCheckpoint(st)
	}
	return nil
}

// resumedBest restores the checkpointed best-so-far configuration, or an
// infinite sentinel when the checkpoint predates any completion.
func (s *Selector) resumedBest(candidates []*engine.Config) Best {
	best := Best{Time: math.Inf(1)}
	if s.resume != nil && s.resume.BestID != "" {
		for _, c := range candidates {
			if c.ID == s.resume.BestID {
				best = Best{Time: s.resume.BestTime, Config: c}
				break
			}
		}
	}
	return best
}

// incomplete lists the candidates whose bookkeeping has not completed the
// workload, in original candidate order — the "remaining" set of the
// tightened final pass when resuming past the completion round.
func (s *Selector) incomplete(cs []*engine.Config) []*engine.Config {
	var out []*engine.Config
	for _, c := range cs {
		if m := s.Metas[c]; m == nil || !m.IsComplete {
			out = append(out, c)
		}
	}
	return out
}

// startRound opens one round's span under the selection span and narrates
// it; nil-safe when tracing is off.
func (s *Selector) startRound(round int, timeout float64) *obs.Span {
	now := s.Eval.DB.Clock().Now()
	s.Metrics.Counter("tuner_rounds_total").Inc()
	obs.Emitf(s.Reporter, now, "round", "round %d: per-candidate timeout %.4gs", round, timeout)
	if s.Span == nil {
		return nil
	}
	return s.Trace.Start(s.Span, "round", now, obs.Int("round", round), obs.Float("timeout", timeout))
}

// adaptTimeout applies Algorithm 2 line 14 (index-time-aware timeout
// adaptation) and records the adjustment as a round-span event.
func (s *Selector) adaptTimeout(candidates []*engine.Config, t float64, roundSpan *obs.Span) float64 {
	if !s.Opts.AdaptiveTimeout {
		return t
	}
	t0 := t
	for _, c := range candidates {
		if it := s.Metas[c].IndexTime; it > t {
			t = it
		}
	}
	if t > t0 {
		now := s.Eval.DB.Clock().Now()
		roundSpan.Event("timeout.adapted", now, obs.Float("from", t0), obs.Float("to", t))
		obs.Emitf(s.Reporter, now, "timeout", "timeout adapted %.4gs -> %.4gs (index creation dominates)", t0, t)
	}
	return t
}

// noteBest narrates and gauges a new best-so-far configuration.
func (s *Selector) noteBest(id string, time float64) {
	now := s.Eval.DB.Clock().Now()
	obs.Emitf(s.Reporter, now, "best", "new best %s: workload %.4gs", id, time)
	s.Metrics.Gauge("tuner_best_seconds").Set(time)
}

// Select is Algorithm 2 (ConfigSelect): it returns the configuration with
// the minimal full-workload execution time among the candidates.
//
// Errors: ctx cancellation returns ctx's error (with a valid checkpoint for
// resuming); exceeding Options.MaxRounds before any candidate completes
// returns ErrBudgetExhausted. Both leave the partial bookkeeping in Metas.
// An empty candidate list returns (nil, nil).
func (s *Selector) Select(ctx context.Context, candidates []*engine.Config) (*engine.Config, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.Metas = make(map[*engine.Config]*evaluator.ConfigMeta, len(candidates))
	for _, c := range candidates {
		if s.resume != nil {
			if m, ok := s.resume.Metas[c.ID]; ok && m != nil {
				s.Metas[c] = m
				continue
			}
		}
		s.Metas[c] = evaluator.NewConfigMeta()
	}
	if len(candidates) == 0 {
		return nil, nil
	}

	t := s.Opts.InitialTimeout
	if t <= 0 {
		t = 10
	}
	alpha := s.Opts.Alpha
	if alpha < 2 {
		alpha = 2
	}
	rounds := 0
	if s.resume != nil {
		// Continue the interrupted run's timeout schedule instead of
		// replaying the finished rounds.
		if s.resume.Timeout > 0 {
			t = s.resume.Timeout
		}
		rounds = s.resume.Round
	}

	if s.Opts.Strategy == Racing {
		return s.selectRacing(ctx, candidates, t, alpha, rounds)
	}
	if s.parallelOK() {
		return s.selectParallel(ctx, candidates, t, alpha, rounds)
	}
	return s.selectSequential(ctx, candidates, t, alpha, rounds)
}

// parallelOK reports whether snapshot-parallel evaluation applies: requested
// and no fault injector pinning the run to the primary clock.
func (s *Selector) parallelOK() bool {
	return s.Opts.Parallelism > 1 && !s.Eval.DB.HasFaultInjector()
}

// selectSequential is the single-instance path: one shared database, one
// clock, candidates evaluated in throughput order with an early break on the
// first completion. This is the paper's Algorithm 2 verbatim; Parallelism=1
// runs reproduce pre-parallelism results byte-identically.
func (s *Selector) selectSequential(ctx context.Context, candidates []*engine.Config, t, alpha float64, rounds int) (*engine.Config, error) {
	best := s.resumedBest(candidates)
	var remaining []*engine.Config
	if !math.IsInf(best.Time, 1) {
		// Resumed past the completion round: the best is known, and only the
		// tightened final pass remains — exactly where the uninterrupted run
		// stood after its post-completion checkpoint.
		remaining = s.incomplete(candidates)
	}
	for math.IsInf(best.Time, 1) {
		if err := ctx.Err(); err != nil {
			return nil, errors.Join(err, s.saveState(candidates, rounds, t, &best))
		}
		rounds++
		if s.Opts.MaxRounds > 0 && rounds > s.Opts.MaxRounds {
			return nil, ErrBudgetExhausted
		}
		roundSpan := s.startRound(rounds, t)
		for seq, c := range s.byThroughput(candidates) {
			s.update(ctx, c, t, &best, roundSpan, "round", seq)
			if s.Metas[c].IsComplete {
				remaining = without(candidates, c)
				break
			}
		}
		if err := ctx.Err(); err != nil {
			// Mid-round cancellation: checkpoint the partial progress (the
			// metas record every completed query) so Resume can continue.
			roundSpan.End(s.Eval.DB.Clock().Now())
			return nil, errors.Join(err, s.saveState(candidates, rounds-1, t, &best))
		}
		if !math.IsInf(best.Time, 1) {
			roundSpan.SetAttrs(obs.Bool("complete_found", true))
			roundSpan.End(s.Eval.DB.Clock().Now())
			if err := s.saveState(candidates, rounds, t, &best); err != nil {
				return nil, err
			}
			break
		}
		// Reconfiguration overheads: never let the next round's timeout be
		// dominated by index creation (Algorithm 2 line 14).
		t = s.adaptTimeout(candidates, t, roundSpan)
		t *= alpha
		roundSpan.SetAttrs(obs.Bool("complete_found", false))
		roundSpan.End(s.Eval.DB.Clock().Now())
		if err := s.saveState(candidates, rounds, t, &best); err != nil {
			return nil, err
		}
	}

	// Give every remaining configuration one chance with the tightened,
	// best-based timeout (lines 17-18).
	for seq, c := range s.byThroughput(remaining) {
		s.update(ctx, c, t, &best, s.Span, "final", seq)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return best.Config, nil
}

// selectParallel evaluates each round's candidates concurrently on engine
// snapshots (one per worker) and merges the results deterministically: the
// round's elapsed time is the max over workers, completions are scanned in
// the round's evaluation order with strict improvement, and the tightened
// final pass runs the still-incomplete candidates against the best-based
// budget. The chosen configuration is identical to the sequential path's —
// both pick the candidate with the minimal full-workload time among those
// that can complete — while the elapsed tuning time models N replicas
// working in parallel.
func (s *Selector) selectParallel(ctx context.Context, candidates []*engine.Config, t, alpha float64, rounds int) (*engine.Config, error) {
	best := s.resumedBest(candidates)
	pool := evaluator.NewPool(s.Eval, s.Opts.Parallelism)
	var remaining []*engine.Config
	if !math.IsInf(best.Time, 1) {
		// Resumed past the completion round (see selectSequential).
		remaining = s.incomplete(candidates)
	}
	for math.IsInf(best.Time, 1) {
		if err := ctx.Err(); err != nil {
			return nil, errors.Join(err, s.saveState(candidates, rounds, t, &best))
		}
		rounds++
		if s.Opts.MaxRounds > 0 && rounds > s.Opts.MaxRounds {
			return nil, ErrBudgetExhausted
		}
		roundSpan := s.startRound(rounds, t)
		ordered := s.byThroughput(candidates)
		tasks := make([]evaluator.Task, 0, len(ordered))
		for seq, c := range ordered {
			m := s.Metas[c]
			todo := s.todo(m)
			if len(todo) == 0 {
				// Resumed checkpoint already completed this candidate.
				m.IsComplete = true
				continue
			}
			// Candidate spans are created here, in the round's evaluation
			// order on the coordinating goroutine, before any worker runs:
			// creation order (and so trace shape) is parallelism-invariant
			// scheduling-wise. The owning worker fills and ends each span.
			var span *obs.Span
			if roundSpan != nil {
				span = s.Trace.Start(roundSpan, "candidate", s.Eval.DB.Clock().Now(),
					obs.String("config", c.ID), obs.Int("seq", seq),
					obs.String("phase", "round"), obs.Float("timeout", t))
			}
			tasks = append(tasks, evaluator.Task{Config: c, Queries: todo, Timeout: t, Meta: m, Span: span})
		}
		if _, err := pool.Run(ctx, tasks); err != nil {
			roundSpan.End(s.Eval.DB.Clock().Now())
			return nil, errors.Join(err, s.saveState(candidates, rounds-1, t, &best))
		}
		// Deterministic merge: scan completions in the round's evaluation
		// order with strict improvement, mirroring the sequential scan.
		for _, c := range ordered {
			if m := s.Metas[c]; m.IsComplete && m.Time < best.Time {
				best = Best{Time: m.Time, Config: c}
				s.Progress = append(s.Progress, ProgressEvent{
					Clock:    s.Eval.DB.Clock().Now(),
					BestTime: m.Time,
					ConfigID: c.ID,
				})
				s.noteBest(c.ID, m.Time)
			}
		}
		if !math.IsInf(best.Time, 1) {
			for _, c := range candidates {
				if !s.Metas[c].IsComplete {
					remaining = append(remaining, c)
				}
			}
			roundSpan.SetAttrs(obs.Bool("complete_found", true))
			roundSpan.End(s.Eval.DB.Clock().Now())
			if err := s.saveState(candidates, rounds, t, &best); err != nil {
				return nil, err
			}
			break
		}
		t = s.adaptTimeout(candidates, t, roundSpan)
		t *= alpha
		roundSpan.SetAttrs(obs.Bool("complete_found", false))
		roundSpan.End(s.Eval.DB.Clock().Now())
		if err := s.saveState(candidates, rounds, t, &best); err != nil {
			return nil, err
		}
	}

	// Tightened final chance (Algorithm 2 lines 17-18), also in parallel:
	// any candidate whose total workload time beats the current best fits
	// within the best-based budget, so the global minimum always completes.
	ordered := s.byThroughput(remaining)
	tasks := make([]evaluator.Task, 0, len(ordered))
	for seq, c := range ordered {
		m := s.Metas[c]
		var span *obs.Span
		if s.Span != nil && s.Trace != nil {
			span = s.Trace.Start(s.Span, "candidate", s.Eval.DB.Clock().Now(),
				obs.String("config", c.ID), obs.Int("seq", seq), obs.String("phase", "final"))
		}
		budget := best.Time - m.Time
		if budget <= 0 {
			// Provably suboptimal (paper §4, Best Configuration).
			span.SetAttrs(obs.Bool("skipped", true))
			span.End(s.Eval.DB.Clock().Now())
			continue
		}
		todo := s.todo(m)
		if len(todo) == 0 {
			span.SetAttrs(obs.Bool("skipped", true))
			span.End(s.Eval.DB.Clock().Now())
			continue
		}
		span.SetAttrs(obs.Float("timeout", budget))
		tasks = append(tasks, evaluator.Task{Config: c, Queries: todo, Timeout: budget, Meta: m, Span: span})
	}
	if _, err := pool.Run(ctx, tasks); err != nil {
		return nil, err
	}
	for _, c := range ordered {
		if m := s.Metas[c]; m.IsComplete && m.Time < best.Time {
			best = Best{Time: m.Time, Config: c}
			s.Progress = append(s.Progress, ProgressEvent{
				Clock:    s.Eval.DB.Clock().Now(),
				BestTime: m.Time,
				ConfigID: c.ID,
			})
			s.noteBest(c.ID, m.Time)
		}
	}
	return best.Config, nil
}

// todo lists the workload queries the configuration has not completed yet.
func (s *Selector) todo(meta *evaluator.ConfigMeta) []*engine.Query {
	var out []*engine.Query
	for _, q := range s.Workload {
		if !meta.Completed[q.Name] {
			out = append(out, q)
		}
	}
	return out
}

// update is Algorithm 2's Update procedure. When tracing is on (parent span
// set), the candidate's evaluation — including the tightened-timeout and
// provably-suboptimal-skip verdicts — records as a candidate span under
// parent, with phase "round" or "final" and its position seq in the round's
// evaluation order.
func (s *Selector) update(ctx context.Context, c *engine.Config, t float64, best *Best, parent *obs.Span, phase string, seq int) {
	clock := s.Eval.DB.Clock()
	var span *obs.Span
	if parent != nil && s.Trace != nil {
		span = s.Trace.Start(parent, "candidate", clock.Now(),
			obs.String("config", c.ID), obs.Int("seq", seq),
			obs.String("phase", phase), obs.Int("worker", 0))
	}
	meta := s.Metas[c]
	if !math.IsInf(best.Time, 1) {
		// Any configuration exceeding best.Time − completed time is
		// provably suboptimal (paper §4, Best Configuration).
		t = best.Time - meta.Time
		if t <= 0 {
			span.SetAttrs(obs.Bool("skipped", true))
			span.End(clock.Now())
			return
		}
	}
	span.SetAttrs(obs.Float("timeout", t))
	todo := s.todo(meta)
	if len(todo) == 0 {
		meta.IsComplete = true
	} else {
		if err := s.Eval.Apply(c); err != nil {
			// Unusable configuration (bad parameter values): mark it
			// permanently incomplete.
			meta.IsComplete = false
			span.SetAttrs(obs.Bool("apply_failed", true))
			span.End(clock.Now())
			return
		}
		s.Eval.Span = span
		s.Eval.Evaluate(ctx, c, todo, t, meta)
		s.Eval.Span = nil
	}
	span.SetAttrs(obs.Bool("complete", meta.IsComplete),
		obs.Float("time", meta.Time), obs.Float("index_time", meta.IndexTime))
	span.End(clock.Now())
	if meta.IsComplete && meta.Time < best.Time {
		best.Time = meta.Time
		best.Config = c
		s.Progress = append(s.Progress, ProgressEvent{
			Clock:    s.Eval.DB.Clock().Now(),
			BestTime: meta.Time,
			ConfigID: c.ID,
		})
		s.noteBest(c.ID, meta.Time)
	}
}

// byThroughput orders configurations by decreasing throughput (queries
// completed per unit time), breaking ties by original position.
func (s *Selector) byThroughput(cs []*engine.Config) []*engine.Config {
	out := append([]*engine.Config(nil), cs...)
	pos := make(map[*engine.Config]int, len(cs))
	for i, c := range cs {
		pos[c] = i
	}
	sort.SliceStable(out, func(a, b int) bool {
		ta := s.Metas[out[a]].Throughput()
		tb := s.Metas[out[b]].Throughput()
		if ta != tb {
			return ta > tb
		}
		return pos[out[a]] < pos[out[b]]
	})
	return out
}

func without(cs []*engine.Config, drop *engine.Config) []*engine.Config {
	out := make([]*engine.Config, 0, len(cs)-1)
	for _, c := range cs {
		if c != drop {
			out = append(out, c)
		}
	}
	return out
}
