// Package tuner implements λ-Tune's end-to-end tuning pipeline (paper
// Algorithm 1): generate a workload-tailored prompt, sample k candidate
// configurations from the LLM, and identify the best one with the
// bounded-cost configuration selector.
package tuner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lambdatune/internal/backend"
	"lambdatune/internal/core/evaluator"
	"lambdatune/internal/core/prompt"
	"lambdatune/internal/core/selector"
	"lambdatune/internal/engine"
	"lambdatune/internal/llm"
	"lambdatune/internal/obs"
	"lambdatune/internal/runstate"
)

// ErrNoUsableSample reports that every LLM sample failed or produced an
// unparseable configuration script. Inspect the wrapped errors (errors.Join
// of the per-sample failures) for the individual causes.
var ErrNoUsableSample = errors.New("tuner: no usable configuration sample")

// Options configures a tuning run. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// Samples is k, the number of LLM calls / candidate configurations
	// (paper §6.1 evaluates 5).
	Samples int
	// Temperature controls LLM output randomization.
	Temperature float64
	// Prompt configures prompt generation (token budget, ILP vs greedy,
	// compressor on/off).
	Prompt prompt.Options
	// Selector configures configuration selection (timeouts, α).
	Selector selector.Options
	// UseScheduler / LazyIndexes toggle the §5 evaluation optimizations
	// (ablation switches).
	UseScheduler bool
	LazyIndexes  bool
	// Seed drives scheduling (k-means) determinism.
	Seed int64
	// MaxRetries bounds re-requests per sample when an LLM call fails or
	// returns an unparseable script (transient API errors are routine with
	// hosted models).
	MaxRetries int
	// Resilience, when set, wraps the client with llm.NewResilientClient
	// (retry/backoff, per-call deadlines, circuit breaker, optional
	// fallback) on the database's virtual clock.
	Resilience *llm.ResilienceOptions
	// SeedDefault adds the live default configuration to the candidate
	// pool, guaranteeing a non-nil Best (never worse than not tuning) even
	// when every LLM candidate is bad or keeps aborting.
	SeedDefault bool
	// Trace, when set, records the run as a span tree (run → prompt /
	// llm.sample / selection → round → candidate → query / index.build):
	// virtual timestamps from the database clock, host wall times as
	// annotations only. Tracing is passive — a traced run selects the same
	// configuration, byte for byte, as an untraced one.
	Trace *obs.Tracer
	// Metrics, when set, receives the run's tuner_* counters/gauges and —
	// when the backend is the instrumented decorator with an attached
	// registry — the backend_* surface metrics.
	Metrics *obs.Registry
	// Progress, when set, receives live round/candidate/timeout narration
	// stamped with virtual timestamps (e.g. obs.NewConsoleReporter).
	Progress obs.ProgressSink
	// Checkpoint, when set, durably persists the run's full resumable state
	// — candidate pool, consumed samples, selector round bookkeeping, clock
	// position — after LLM sampling completes and after every selector
	// round (see internal/runstate). A failed durable write aborts the run.
	Checkpoint *runstate.Store
	// Resume, when set, continues a checkpointed run: prompt generation and
	// LLM sampling are skipped (the paid-for samples come from the state),
	// the virtual clock is restored, and selection continues from the saved
	// round. The state must match this run's workload and options
	// (runstate.ErrCheckpointMismatch otherwise). A run killed at any
	// selector-round boundary and resumed this way selects the same
	// configuration byte-for-byte as the uninterrupted run.
	Resume *runstate.State
	// DecorateState, when set, runs on every checkpoint state before it is
	// written — the API layer stamps the fault injector's RNG position here.
	DecorateState func(*runstate.State)

	// SharedMemo, when set, replaces the run-private evaluation memo with a
	// Runtime-owned cross-job memo (see evaluator.NewSharedMemo). It is
	// honored only when the backend's plan-cache toggle would have built a
	// private memo anyway, preserving the one-switch memoization rule.
	// Memo hits change host CPU time only, never virtual-clock outcomes.
	SharedMemo *evaluator.Memo
	// Slots, when set, is the Runtime's cross-job evaluation admission gate:
	// every Evaluate pass of this run leases one slot. Wall-clock only.
	Slots *evaluator.SharedSlots
	// JobID names this run toward the shared memo and slot gate ("" outside
	// a Runtime): it attributes entries and leases for cross-job telemetry
	// and fair scheduling.
	JobID string
	// SharedPrompt, when set, is a pregenerated prompt for this exact
	// (workload, default configuration, Prompt options) triple, injected by
	// the Runtime from its per-template cache. Tune uses it verbatim instead
	// of calling prompt.Generate — generation is deterministic and touches
	// neither the virtual clock nor the backend state, so the cached result
	// is byte-identical to what this run would have produced.
	SharedPrompt *prompt.Result
}

// DefaultOptions matches the paper's experimental setup (§6.1).
func DefaultOptions() Options {
	return Options{
		Samples:      5,
		Temperature:  0.7,
		Prompt:       prompt.DefaultOptions(),
		Selector:     selector.DefaultOptions(),
		UseScheduler: true,
		LazyIndexes:  true,
		Seed:         1,
		MaxRetries:   2,
		SeedDefault:  true,
	}
}

// DefaultConfigID labels the default-configuration candidate that
// SeedDefault adds to the pool. Its script is empty: "keep the defaults".
const DefaultConfigID = "default"

// FaultReport is the structured resilience telemetry of one tuning run:
// what failed, what it cost, and what the pipeline did about it.
type FaultReport struct {
	// LLMCalls / LLMFailures count attempts against the (wrapped) client
	// and their failures; LLMRetries counts backoff re-attempts. Zero
	// unless Options.Resilience is set.
	LLMCalls    int
	LLMFailures int
	LLMRetries  int
	// BreakerTrips counts circuit-breaker openings; FallbackCalls counts
	// requests served by the fallback client.
	BreakerTrips  int
	FallbackCalls int
	// BackoffSeconds / BreakerWaitSeconds / FailedCallSeconds are the
	// virtual time spent waiting between retries, waiting out open breaker
	// windows, and inside failed calls; all three are on the database
	// clock and therefore included in Result.TuningSeconds.
	BackoffSeconds     float64
	BreakerWaitSeconds float64
	FailedCallSeconds  float64
	// DroppedSamples counts LLM samples abandoned after per-sample retries
	// (failed calls or unparseable scripts).
	DroppedSamples int
	// QueryAborts / IndexFailures count injected engine faults survived
	// during configuration selection.
	QueryAborts   int
	IndexFailures int
	// DegradedToDefault reports that every usable path failed and the
	// returned Best is the seeded default configuration.
	DegradedToDefault bool
}

// Any reports whether the run observed any fault or degradation.
func (r FaultReport) Any() bool {
	return r.LLMFailures > 0 || r.DroppedSamples > 0 || r.QueryAborts > 0 ||
		r.IndexFailures > 0 || r.BreakerTrips > 0 || r.FallbackCalls > 0 ||
		r.DegradedToDefault
}

// String summarizes the report in one line.
func (r FaultReport) String() string {
	return fmt.Sprintf(
		"llm: %d/%d calls failed, %d retries, %d breaker trips, %d fallback; engine: %d query aborts, %d index failures; dropped samples: %d; wait: %.1fs backoff + %.1fs breaker",
		r.LLMFailures, r.LLMCalls, r.LLMRetries, r.BreakerTrips, r.FallbackCalls,
		r.QueryAborts, r.IndexFailures, r.DroppedSamples, r.BackoffSeconds, r.BreakerWaitSeconds)
}

// Result reports a completed tuning run.
type Result struct {
	// Best is the selected configuration (nil if no candidate completed).
	Best *engine.Config
	// BestTime is the best configuration's full-workload execution time in
	// simulated seconds.
	BestTime float64
	// Candidates are all sampled configurations in sampling order.
	Candidates []*engine.Config
	// Prompt records the generated prompt and its token accounting.
	Prompt prompt.Result
	// Progress traces best-so-far improvements on the virtual clock.
	Progress []selector.ProgressEvent
	// TuningSeconds is the total virtual time the run consumed.
	TuningSeconds float64
	// EvalWallSeconds is the real wall-clock time the configuration
	// selection phase took — the quantity parallel evaluation shrinks.
	EvalWallSeconds float64
	// Warnings aggregates non-fatal issues (e.g. unknown parameters in LLM
	// responses, skipped like a DBA would).
	Warnings []string
	// Metas exposes per-candidate evaluation bookkeeping.
	Metas map[*engine.Config]*evaluator.ConfigMeta
	// Faults is the run's resilience telemetry (zero-valued on a clean run).
	Faults FaultReport
	// Telemetry condenses the run's trace (span/event totals, per-phase
	// virtual/wall cost breakdown) and metrics snapshot. Non-nil whenever
	// Options.Trace or Options.Metrics was set — including on partial
	// results returned with an error (cancellation, exhausted budget).
	Telemetry *obs.Summary
}

// Tuner runs Algorithm 1 against a database backend and workload.
type Tuner struct {
	DB     backend.Backend
	Client llm.Client
	Opts   Options
}

// New creates a tuner with the given LLM client. When opts.Resilience is
// set, the client is wrapped with the resilience layer on the database's
// virtual clock (unless the options carry their own clock).
func New(db backend.Backend, client llm.Client, opts Options) *Tuner {
	if opts.Samples <= 0 {
		opts.Samples = 5
	}
	if opts.Resilience != nil {
		ropts := *opts.Resilience
		if ropts.Clock == nil {
			ropts.Clock = db.Clock()
		}
		if ropts.Seed == 0 {
			ropts.Seed = opts.Seed
		}
		client = llm.NewResilientClient(client, ropts)
	}
	return &Tuner{DB: db, Client: client, Opts: opts}
}

// Tune executes the pipeline: prompt generation, k LLM samples,
// configuration selection. The database's virtual clock advances by the full
// tuning cost (query evaluations and index creations).
//
// Cancelling ctx aborts the run promptly — between LLM calls during
// sampling, and within one query execution during selection — returning
// ctx's error. On a selection error (cancellation, exhausted round budget)
// the partial Result is returned alongside the error so callers keep the
// telemetry and the selector checkpoint stays usable.
func (t *Tuner) Tune(ctx context.Context, queries []*engine.Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("tuner: empty workload")
	}
	clock := t.DB.Clock()
	// Checkpoint/resume digests: a checkpoint is only resumable onto the same
	// workload under the same selection-relevant options (Fingerprint).
	var wdigest, odigest string
	if t.Opts.Checkpoint != nil || t.Opts.Resume != nil {
		wdigest = runstate.WorkloadDigest("", queries)
		odigest = t.fingerprint().Digest()
	}
	if st := t.Opts.Resume; st != nil {
		if err := st.Validate(wdigest, odigest); err != nil {
			return nil, fmt.Errorf("tuner: resume: %w", err)
		}
		// Restore the virtual clock exactly; the run's remaining cost then
		// accumulates on top of everything already paid before the crash.
		clock.Set(st.ClockSeconds)
	}
	start := clock.Now()
	if st := t.Opts.Resume; st != nil {
		start = st.StartClockSeconds
	}
	abortsBefore, ixFailsBefore := t.DB.QueryAborts(), t.DB.IndexFailures()
	statsBefore := clientStats(t.Client)

	tr := t.Opts.Trace
	runSpan := tr.Start(nil, "run", start,
		obs.Int("samples", t.Opts.Samples), obs.Int("queries", len(queries)),
		obs.Int("parallelism", t.Opts.Selector.Parallelism))
	obs.Emitf(t.Opts.Progress, start, "run", "tuning run: %d queries, %d samples, parallelism %d",
		len(queries), t.Opts.Samples, t.Opts.Selector.Parallelism)
	// finish closes the run on every exit path that has a result — success,
	// cancellation, exhausted budget — so the Telemetry summary is
	// populated even on partial results.
	finish := func(res *Result) {
		res.TuningSeconds = clock.Now() - start
		t.exportMetrics(res)
		if res.Best != nil {
			runSpan.SetAttrs(obs.String("best", res.Best.ID), obs.Float("best_time", res.BestTime))
		}
		runSpan.End(clock.Now())
		t.exportTelemetry(res)
		obs.Emitf(t.Opts.Progress, clock.Now(), "run", "done: best=%s tuning=%.4gs",
			bestID(res), res.TuningSeconds)
	}

	var res *Result
	if st := t.Opts.Resume; st != nil {
		// Resume path: the prompt accounting and the paid-for LLM samples come
		// from the checkpoint — no prompt is regenerated, no token spent twice.
		res = &Result{Prompt: prompt.Result{TotalTokens: st.PromptTokens}}
		res.Candidates = runstate.RestoreConfigs(st.Candidates)
		res.Warnings = append(res.Warnings, st.Warnings...)
		res.Faults.DroppedSamples = st.DroppedSamples
		round := 0
		if st.Round != nil {
			round = st.Round.Round
		}
		runSpan.Event("resume", clock.Now(),
			obs.Int("round", round), obs.Int("candidates", len(res.Candidates)))
		t.Opts.Metrics.Counter("runstate_resumes_total").Inc()
		obs.Emitf(t.Opts.Progress, clock.Now(), "resume",
			"resuming from checkpoint: %d candidates, round %d, clock %.4gs",
			len(res.Candidates), round, st.ClockSeconds)
		if len(res.Candidates) == 0 {
			finish(res)
			return res, fmt.Errorf("%w: checkpoint carries no candidates", ErrNoUsableSample)
		}
	} else {
		// Prompt generation (§3). EXPLAIN-based snippet valuation uses the
		// database's current (default) configuration. A Runtime that already
		// generated this exact prompt for an earlier job hands it in instead.
		promptSpan := tr.Start(runSpan, "prompt", clock.Now())
		var pr prompt.Result
		var err error
		if t.Opts.SharedPrompt != nil {
			pr = *t.Opts.SharedPrompt
		} else {
			pr, err = prompt.Generate(t.DB, queries, t.DB.Hardware(), t.Opts.Prompt)
		}
		promptSpan.SetAttrs(obs.Int("tokens", pr.TotalTokens))
		promptSpan.End(clock.Now())
		if err != nil {
			runSpan.End(clock.Now())
			return nil, err
		}
		res = &Result{Prompt: pr}

		// k LLM calls (Algorithm 1 line 3), each retried on transient API
		// failures or unparseable responses. Each sample's span is carried in
		// the call context so the resilient client can attach its retry /
		// breaker / fallback events to it.
		var sampleErrs []error
		for i := 0; i < t.Opts.Samples; i++ {
			if err := ctx.Err(); err != nil {
				// Cancelled mid-sampling: still hand back the partial result so
				// the telemetry collected so far survives.
				t.mergeClientStats(res, statsBefore)
				finish(res)
				return res, err
			}
			sampleSpan := tr.Start(runSpan, "llm.sample", clock.Now(), obs.Int("idx", i+1))
			sctx := obs.ContextWithSpan(ctx, sampleSpan)
			cfg, warns, err := t.sample(sctx, pr.Text, i+1)
			sampleSpan.SetAttrs(obs.Bool("ok", err == nil))
			sampleSpan.End(clock.Now())
			if err != nil {
				sampleErrs = append(sampleErrs, fmt.Errorf("sample %d: %w", i+1, err))
				res.Faults.DroppedSamples++
				res.Warnings = append(res.Warnings, fmt.Sprintf("sample %d dropped: %v", i+1, err))
				obs.Emitf(t.Opts.Progress, clock.Now(), "llm", "sample %d/%d dropped: %v", i+1, t.Opts.Samples, err)
				continue
			}
			res.Warnings = append(res.Warnings, warns...)
			res.Candidates = append(res.Candidates, cfg)
			obs.Emitf(t.Opts.Progress, clock.Now(), "llm", "sample %d/%d ok: %s", i+1, t.Opts.Samples, cfg.ID)
		}
		t.mergeClientStats(res, statsBefore)
		if len(res.Candidates) == 0 {
			finish(res)
			if err := ctx.Err(); err != nil {
				return res, err
			}
			return res, fmt.Errorf("%w: 0 of %d samples usable: %w",
				ErrNoUsableSample, t.Opts.Samples, errors.Join(sampleErrs...))
		}
	}

	// Graceful degradation: the candidate pool is seeded with the live
	// default configuration, so selection always has a floor — Best is
	// never nil and never worse than not tuning, whatever the LLM returned.
	pool := res.Candidates
	var defaultCfg *engine.Config
	if t.Opts.SeedDefault {
		defaultCfg = &engine.Config{ID: DefaultConfigID, Params: map[string]string{}}
		pool = append([]*engine.Config{defaultCfg}, res.Candidates...)
	}

	// Configuration selection (§4) with lazy-index evaluation (§5).
	eval := evaluator.New(t.DB)
	eval.UseScheduler = t.Opts.UseScheduler
	eval.LazyIndexes = t.Opts.LazyIndexes
	eval.Seed = t.Opts.Seed
	eval.Trace = tr
	eval.Metrics = t.Opts.Metrics
	if t.Opts.SharedMemo != nil && eval.Memo != nil {
		// Borrow the Runtime's namespace memo instead of the run-private one
		// (only when the plan-cache toggle enabled memoization at all).
		eval.Memo = t.Opts.SharedMemo
	}
	eval.Owner = t.Opts.JobID
	eval.Slots = t.Opts.Slots
	sel := selector.New(eval, queries, t.Opts.Selector)
	sel.Trace = tr
	sel.Span = tr.Start(runSpan, "selection", clock.Now(), obs.Int("candidates", len(pool)))
	sel.Reporter = t.Opts.Progress
	sel.Metrics = t.Opts.Metrics
	if st := t.Opts.Resume; st != nil && st.Round != nil {
		sel.Resume(st.Round.Restore())
	}
	if store := t.Opts.Checkpoint; store != nil {
		saveCkpt := func(rs *selector.RoundState) error {
			st := &runstate.State{
				RunID:             store.RunID,
				WorkloadDigest:    wdigest,
				OptionsDigest:     odigest,
				StartClockSeconds: start,
				ClockSeconds:      clock.Now(),
				PromptTokens:      res.Prompt.TotalTokens,
				SeedDefault:       t.Opts.SeedDefault,
				Candidates:        runstate.CaptureConfigs(res.Candidates),
				Warnings:          res.Warnings,
				DroppedSamples:    res.Faults.DroppedSamples,
				Round:             runstate.CaptureRound(rs),
			}
			if t.Opts.DecorateState != nil {
				t.Opts.DecorateState(st)
			}
			n, err := store.Save(st)
			if n > 0 {
				// Count the write even when a post-save hook (kill point)
				// errors — the bytes are already durable.
				t.Opts.Metrics.Counter("runstate_checkpoints_total").Inc()
				t.Opts.Metrics.Counter("runstate_checkpoint_bytes_total").Add(float64(n))
				t.Opts.Metrics.Gauge("runstate_last_checkpoint_bytes").Set(float64(n))
			}
			round := 0
			if rs != nil {
				round = rs.Round
			}
			runSpan.Event("checkpoint.saved", clock.Now(),
				obs.Int("round", round), obs.Int("bytes", n))
			return err
		}
		if t.Opts.Resume == nil {
			// The post-sampling checkpoint makes the paid-for LLM samples
			// durable before the first evaluation round runs.
			if err := saveCkpt(nil); err != nil {
				finish(res)
				return res, fmt.Errorf("tuner: checkpoint: %w", err)
			}
		}
		sel.OnCheckpoint = saveCkpt
	}
	wallStart := time.Now()
	best, selErr := sel.Select(ctx, pool)
	res.EvalWallSeconds = time.Since(wallStart).Seconds()
	sel.Span.End(clock.Now())
	res.Metas = sel.Metas
	res.Progress = sel.Progress
	res.Faults.QueryAborts = t.DB.QueryAborts() - abortsBefore
	res.Faults.IndexFailures = t.DB.IndexFailures() - ixFailsBefore
	if selErr != nil {
		// Cancellation or exhausted round budget: hand the partial result
		// back with the error so telemetry and checkpoints survive.
		finish(res)
		return res, fmt.Errorf("tuner: configuration selection: %w", selErr)
	}
	res.Best = best
	if best != nil {
		res.BestTime = sel.Metas[best].Time
	}
	if best != nil && best == defaultCfg && len(res.Candidates) > 0 {
		res.Faults.DegradedToDefault = true
		res.Warnings = append(res.Warnings,
			"no LLM candidate beat the default configuration; returning the default")
	}
	t.mergeClientStats(res, statsBefore)
	finish(res)
	return res, nil
}

// fingerprint condenses this run's selection-relevant options for checkpoint
// validation (see runstate.Fingerprint for what is deliberately excluded).
func (t *Tuner) fingerprint() runstate.Fingerprint {
	fp := runstate.Fingerprint{
		Flavor:         t.DB.Flavor().String(),
		Seed:           t.Opts.Seed,
		Samples:        t.Opts.Samples,
		Temperature:    t.Opts.Temperature,
		TokenBudget:    t.Opts.Prompt.TokenBudget,
		InitialTimeout: t.Opts.Selector.InitialTimeout,
		Alpha:          t.Opts.Selector.Alpha,
		Adaptive:       t.Opts.Selector.AdaptiveTimeout,
		UseScheduler:   t.Opts.UseScheduler,
		LazyIndexes:    t.Opts.LazyIndexes,
		SeedDefault:    t.Opts.SeedDefault,
	}
	if t.Opts.Selector.Strategy == selector.Racing {
		r := t.Opts.Selector.Racing.Norm()
		fp.Racing = true
		fp.RaceStart = r.StartFraction
		fp.RaceGrowth = r.Growth
		fp.RaceFinal = r.FinalSurvivors
		fp.RaceNoElim = r.DisableElimination
	}
	return fp
}

// exportMetrics pushes the run-level resilience counters (from the fault
// report deltas) and timing gauges into the registry.
func (t *Tuner) exportMetrics(res *Result) {
	reg := t.Opts.Metrics
	if reg == nil {
		return
	}
	f := res.Faults
	reg.Counter("tuner_llm_calls_total").Add(float64(f.LLMCalls))
	reg.Counter("tuner_llm_failures_total").Add(float64(f.LLMFailures))
	reg.Counter("tuner_llm_retries_total").Add(float64(f.LLMRetries))
	reg.Counter("tuner_llm_breaker_trips_total").Add(float64(f.BreakerTrips))
	reg.Counter("tuner_llm_fallback_calls_total").Add(float64(f.FallbackCalls))
	reg.Counter("tuner_dropped_samples_total").Add(float64(f.DroppedSamples))
	reg.Gauge("tuner_tuning_seconds").Set(res.TuningSeconds)
	if res.Best != nil {
		reg.Gauge("tuner_best_seconds").Set(res.BestTime)
	}
}

// exportTelemetry condenses the trace and metrics registry into the result's
// Telemetry summary. No-op when neither telemetry option is set.
func (t *Tuner) exportTelemetry(res *Result) {
	tr, reg := t.Opts.Trace, t.Opts.Metrics
	if tr == nil && reg == nil {
		return
	}
	sum := tr.Summarize()
	if reg != nil {
		sum.Metrics = reg.Snapshot()
	}
	res.Telemetry = &sum
}

// bestID names the selected configuration for progress narration.
func bestID(res *Result) string {
	if res.Best == nil {
		return "<none>"
	}
	return res.Best.ID
}

// clientStats snapshots the resilience telemetry when the client exposes it.
func clientStats(c llm.Client) llm.ResilienceStats {
	if sp, ok := c.(llm.StatsProvider); ok {
		return sp.Stats()
	}
	return llm.ResilienceStats{}
}

// mergeClientStats folds the client's telemetry accumulated since the given
// snapshot into the result's fault report.
func (t *Tuner) mergeClientStats(res *Result, before llm.ResilienceStats) {
	now := clientStats(t.Client)
	res.Faults.LLMCalls = now.Calls - before.Calls
	res.Faults.LLMFailures = now.Failures - before.Failures
	res.Faults.LLMRetries = now.Retries - before.Retries
	res.Faults.BreakerTrips = now.BreakerTrips - before.BreakerTrips
	res.Faults.FallbackCalls = now.FallbackCalls - before.FallbackCalls
	res.Faults.BackoffSeconds = now.BackoffSeconds - before.BackoffSeconds
	res.Faults.BreakerWaitSeconds = now.BreakerWaitSeconds - before.BreakerWaitSeconds
	res.Faults.FailedCallSeconds = now.LatencySeconds - before.LatencySeconds
}

// sample requests one configuration, retrying failed calls and unparseable
// responses up to MaxRetries times.
func (t *Tuner) sample(ctx context.Context, prompt string, idx int) (*engine.Config, []string, error) {
	attempts := 1 + t.Opts.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, nil, fmt.Errorf("%w (last attempt: %v)", err, lastErr)
			}
			return nil, nil, err
		}
		out, err := llm.Complete(ctx, t.Client, prompt, t.Opts.Temperature)
		if err != nil {
			lastErr = fmt.Errorf("LLM call failed: %w", err)
			continue
		}
		cfg, warns, err := engine.ParseScript(t.DB.Flavor(), fmt.Sprintf("llm-%d", idx), out)
		if err != nil {
			lastErr = fmt.Errorf("unparseable response: %w", err)
			continue
		}
		return cfg, warns, nil
	}
	return nil, nil, lastErr
}

// ApplyBest installs the winning configuration on the database: parameters
// set and all recommended indexes created (clock advances by creation time).
func (t *Tuner) ApplyBest(res *Result) error {
	if res.Best == nil {
		return fmt.Errorf("tuner: no best configuration to apply")
	}
	t.DB.DropTransientIndexes()
	if err := t.DB.ApplyConfig(res.Best); err != nil {
		return err
	}
	for _, ix := range res.Best.Indexes {
		t.DB.CreateIndex(ix)
	}
	return nil
}
