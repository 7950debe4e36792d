package lambdatune

import (
	"fmt"
	"io"

	"lambdatune/internal/core/race"
	"lambdatune/internal/core/selector"
	"lambdatune/internal/core/tuner"
	"lambdatune/internal/llm"
	"lambdatune/internal/obs"
)

// EvalStrategy selects how configuration candidates are evaluated during
// selection (Options.Evaluation.Strategy).
type EvalStrategy int

const (
	// FullEvaluation is the paper-faithful default: every candidate runs the
	// full workload under Algorithm 2's geometric timeout schedule.
	FullEvaluation EvalStrategy = iota
	// Racing is successive halving: all candidates run a cheap prefix of the
	// DP-scheduled workload, an online cost surrogate (fitted from EXPLAIN
	// plan costs and observed runtimes) eliminates the dominated half at each
	// rung, and survivors are promoted to longer prefixes. The exact final
	// pass is reserved for the last survivors, so the selected
	// configuration's reported speedup stays exact. Deterministic: the same
	// seed produces the same eliminations at any Parallelism.
	Racing
)

// RacingOptions tunes the Racing strategy. The zero value of every field
// means "use the default", so a nil *RacingOptions is fully defaulted.
type RacingOptions struct {
	// StartFraction is the fraction of the workload evaluated at the first
	// rung (default 0.125; must be in (0, 1]).
	StartFraction float64
	// Growth multiplies the prefix length and rung budget between rungs
	// (default 2; must be >= 1).
	Growth float64
	// FinalSurvivors is how many candidates reach the exact final selection
	// pass (default 2).
	FinalSurvivors int
	// DisableElimination runs the racing machinery without eliminating
	// anyone — a single full-length rung. Used by equivalence tests.
	DisableElimination bool
}

func (r *RacingOptions) toRace() race.Options {
	if r == nil {
		return race.Options{}
	}
	return race.Options{
		StartFraction:      r.StartFraction,
		Growth:             r.Growth,
		FinalSurvivors:     r.FinalSurvivors,
		DisableElimination: r.DisableElimination,
	}
}

// EvaluationOptions groups the knobs of the configuration-selection phase.
type EvaluationOptions struct {
	// Parallelism is the number of concurrent evaluation workers (simulated
	// DBMS replicas). 0 or 1 evaluates sequentially; higher values evaluate
	// each round's candidates concurrently with identical selection decisions
	// (same best configuration, same speedup) and lower wall-clock time,
	// injected Faults included. Negative is invalid.
	Parallelism int
	// InitialTimeout is the first evaluation round's per-configuration
	// timeout in seconds (paper default: 10). 0 means the default; negative
	// is invalid.
	InitialTimeout float64
	// Alpha is the geometric timeout growth factor, >= 2 (paper default:
	// 10). 0 means the default; values in (0, 2) are invalid.
	Alpha float64
	// Strategy selects full evaluation (default) or racing.
	Strategy EvalStrategy
	// Racing tunes the Racing strategy; nil uses the defaults. Setting it
	// without Strategy: Racing is invalid.
	Racing *RacingOptions
}

// DurabilityOptions groups crash-recovery knobs.
type DurabilityOptions struct {
	// CheckpointDir, when set, makes the run crash-recoverable: its full
	// resumable state (candidate pool, consumed LLM samples and their fault
	// telemetry, selector round bookkeeping, virtual clock) is durably
	// checkpointed into this directory — fsync'd and atomically renamed —
	// after LLM sampling completes and after every selection round. The
	// checkpoint file is named after the workload and seed, so concurrent
	// runs with different seeds do not collide.
	CheckpointDir string
	// Resume, when true, continues a previously checkpointed run from
	// CheckpointDir instead of starting over: prompt generation and LLM
	// sampling are skipped, and selection picks up at the saved round. A run
	// killed at a checkpoint boundary and resumed this way selects the same
	// configuration — byte for byte — as the uninterrupted run. A corrupt
	// live checkpoint (torn write) silently falls back to the previous
	// generation (Result.CheckpointFellBack reports it); a checkpoint from a
	// different workload or differently configured run (another engine
	// fault plan included) is refused with ErrCheckpointMismatch.
	Resume bool
}

// ObservabilityOptions groups the run's telemetry sinks.
type ObservabilityOptions struct {
	// Trace, when set, records the run as a span tree (see Trace). Injected
	// LLM faults appear as events on the trace root, engine faults on the
	// span of the candidate they hit.
	Trace *Trace
	// Metrics, when set, receives the run's tuner_* counters and gauges —
	// plus the backend_* surface series when the database is instrumented
	// (see Database.Instrument).
	Metrics *Metrics
	// Progress, when set, receives live one-line narration of the run
	// (rounds, timeouts, best-so-far improvements) stamped with virtual
	// timestamps — e.g. os.Stderr.
	Progress io.Writer
}

// Options configures a tuning run; start from DefaultOptions. The zero
// value of every field is meaningful (documented per field), so a partially
// filled struct is valid as long as Validate accepts it.
//
// Evaluation, durability, and observability knobs live in the Evaluation,
// Durability, and Observability groups.
type Options struct {
	// Samples is k, the number of candidate configurations requested from
	// the LLM (paper default: 5). 0 means the default; negative is invalid.
	Samples int
	// Temperature controls LLM randomization. 0 is a valid setting and
	// means greedy decoding; set a negative value to inherit the paper
	// default (0.7), which DefaultOptions does for you.
	Temperature float64
	// TokenBudget bounds the prompt's workload-representation tokens
	// (0 = fit to the model limit; negative is invalid).
	TokenBudget int
	// Seed drives the deterministic parts of scheduling (0 is a valid seed).
	Seed int64
	// Tenant attributes the run to a tenant when it executes on a shared
	// Runtime: LLM circuit-breaker state and in-flight bounds are isolated
	// per tenant, while memo namespaces are shared across tenants with
	// identical schema and workload (reuse never leaks data — only
	// deterministic recomputation results). "" means the default tenant.
	// Standalone (one-shot) runs ignore it, and it never affects tuning
	// outcomes — checkpoints taken under one tenant resume under another.
	Tenant string
	// Resilience, when set, hardens the LLM boundary (retries, backoff,
	// circuit breaker, fallback). Nil leaves the client unwrapped.
	Resilience *ResilienceOptions
	// Faults, when set, injects deterministic faults into the run. Nil
	// injects nothing.
	Faults *FaultPlan

	// Evaluation groups the configuration-selection knobs: parallelism,
	// timeout schedule, and evaluation strategy (full or racing).
	Evaluation EvaluationOptions
	// Durability groups the crash-recovery knobs (checkpointing, resume).
	Durability DurabilityOptions
	// Observability groups the telemetry sinks (trace, metrics, progress).
	Observability ObservabilityOptions
}

// DefaultOptions mirrors the paper's experimental setup (§6.1). Zero-valued
// knobs (timeout schedule, parallelism) keep their documented defaults, so
// the returned Options carry only the values that differ from Go zero
// values.
func DefaultOptions() Options {
	return Options{Samples: 5, Temperature: 0.7, Seed: 1}
}

// Validate reports whether the options describe a runnable configuration.
// Every violation is wrapped in ErrInvalidOptions (check with errors.Is);
// the message names the offending field. TuneContext validates for you.
func (o Options) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidOptions, fmt.Sprintf(format, args...))
	}
	if o.Samples < 0 {
		return bad("Samples must be >= 0, got %d", o.Samples)
	}
	if o.TokenBudget < 0 {
		return bad("TokenBudget must be >= 0, got %d", o.TokenBudget)
	}
	e := o.Evaluation
	if e.InitialTimeout < 0 {
		return bad("Evaluation.InitialTimeout must be >= 0, got %g", e.InitialTimeout)
	}
	if e.Alpha != 0 && e.Alpha < 2 {
		return bad("Evaluation.Alpha must be 0 (default) or >= 2, got %g", e.Alpha)
	}
	if e.Parallelism < 0 {
		return bad("Evaluation.Parallelism must be >= 0, got %d", e.Parallelism)
	}
	switch e.Strategy {
	case FullEvaluation, Racing:
	default:
		return bad("Evaluation.Strategy must be FullEvaluation or Racing, got %d", e.Strategy)
	}
	if r := e.Racing; r != nil {
		if e.Strategy != Racing {
			return bad("Evaluation.Racing is set but Evaluation.Strategy is not Racing")
		}
		if r.StartFraction < 0 || r.StartFraction > 1 {
			return bad("Evaluation.Racing.StartFraction must be in [0,1], got %g", r.StartFraction)
		}
		if r.Growth != 0 && r.Growth < 1 {
			return bad("Evaluation.Racing.Growth must be 0 (default) or >= 1, got %g", r.Growth)
		}
		if r.FinalSurvivors < 0 {
			return bad("Evaluation.Racing.FinalSurvivors must be >= 0, got %d", r.FinalSurvivors)
		}
	}
	if f := o.Faults; f != nil {
		if f.LLMRate < 0 || f.LLMRate > 1 {
			return bad("Faults.LLMRate must be in [0,1], got %g", f.LLMRate)
		}
		if f.EngineRate < 0 || f.EngineRate > 1 {
			return bad("Faults.EngineRate must be in [0,1], got %g", f.EngineRate)
		}
		if f.CrashAfterRound < 0 {
			return bad("Faults.CrashAfterRound must be >= 0, got %d", f.CrashAfterRound)
		}
		if f.CrashAfterSaves < 0 {
			return bad("Faults.CrashAfterSaves must be >= 0, got %d", f.CrashAfterSaves)
		}
		if (f.CrashAfterRound > 0 || f.CrashAfterSaves > 0) && o.Durability.CheckpointDir == "" {
			return bad("Faults crash kill points require Durability.CheckpointDir")
		}
	}
	if o.Durability.Resume && o.Durability.CheckpointDir == "" {
		return bad("Durability.Resume requires Durability.CheckpointDir")
	}
	return nil
}

// toTuner maps validated public options onto the internal tuner's.
func (o Options) toTuner() tuner.Options {
	t := tuner.DefaultOptions()
	if o.Samples > 0 {
		t.Samples = o.Samples
	}
	// Temperature 0 is meaningful (greedy decoding); only a negative value
	// falls back to the default.
	if o.Temperature >= 0 {
		t.Temperature = o.Temperature
	}
	if o.TokenBudget > 0 {
		t.Prompt.TokenBudget = o.TokenBudget
	}
	e := o.Evaluation
	if e.InitialTimeout > 0 {
		t.Selector.InitialTimeout = e.InitialTimeout
	}
	if e.Alpha >= 2 {
		t.Selector.Alpha = e.Alpha
	}
	t.Selector.Parallelism = e.Parallelism
	if e.Strategy == Racing {
		t.Selector.Strategy = selector.Racing
		t.Selector.Racing = e.Racing.toRace()
	}
	t.Seed = o.Seed
	t.Resilience = o.Resilience.toLLM()
	if tr := o.Observability.Trace; tr != nil {
		t.Trace = tr.tr
	}
	if m := o.Observability.Metrics; m != nil {
		t.Metrics = m.reg
	}
	if p := o.Observability.Progress; p != nil {
		t.Progress = obs.NewConsoleReporter(p)
	}
	return t
}

// ResilienceOptions hardens the LLM boundary of a tuning run: retries with
// exponential backoff and seeded jitter, per-call deadlines, a circuit
// breaker, and an optional fallback client. All waiting is charged to the
// database's virtual clock, so resilience costs show up in
// Result.TuningSeconds exactly as real wall-clock retries would. Zero-valued
// fields fall back to production defaults.
type ResilienceOptions struct {
	// MaxRetries is the number of re-attempts after a failed LLM call
	// (default 3; negative disables retries).
	MaxRetries int
	// InitialBackoffSeconds is the virtual wait before the first retry
	// (default 1); each further retry multiplies it by BackoffFactor
	// (default 2) up to MaxBackoffSeconds (default 30), randomized by
	// ±Jitter fraction (default 0.25, seeded — runs stay reproducible).
	InitialBackoffSeconds float64
	BackoffFactor         float64
	MaxBackoffSeconds     float64
	Jitter                float64
	// CallTimeoutSeconds is the per-call deadline (default 60): a failed
	// call never costs more virtual time than this.
	CallTimeoutSeconds float64
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive failed calls (default 4; negative disables it);
	// BreakerCooldownSeconds is how long it stays open (default 120).
	BreakerThreshold       int
	BreakerCooldownSeconds float64
	// Fallback is consulted when retries are exhausted or the breaker is
	// open (optional; e.g. a second model or a canned-config client).
	Fallback Client
}

func (r *ResilienceOptions) toLLM() *llm.ResilienceOptions {
	if r == nil {
		return nil
	}
	return &llm.ResilienceOptions{
		MaxRetries:       r.MaxRetries,
		InitialBackoff:   r.InitialBackoffSeconds,
		BackoffFactor:    r.BackoffFactor,
		MaxBackoff:       r.MaxBackoffSeconds,
		Jitter:           r.Jitter,
		CallTimeout:      r.CallTimeoutSeconds,
		BreakerThreshold: r.BreakerThreshold,
		BreakerCooldown:  r.BreakerCooldownSeconds,
		Fallback:         r.Fallback,
	}
}

// FaultPlan injects deterministic faults into a tuning run, for resilience
// testing (see internal/faults for the taxonomy). Rates are probabilities
// in [0,1]; the aggregate LLM rate is spread over transient errors,
// rate-limit bursts, truncated scripts, and garbage completions, the engine
// rate over query aborts and index-build failures.
type FaultPlan struct {
	// LLMRate is the per-call probability of an injected LLM fault.
	LLMRate float64
	// EngineRate is the per-operation probability of an injected engine
	// fault (query abort, index-build failure).
	EngineRate float64
	// Seed drives the injected faults (0 = Options.Seed). A plan whose
	// rates are both 0 injects nothing; only its crash points act.
	Seed int64
	// CrashAfterRound, when > 0, simulates a crash immediately after the
	// durable checkpoint that closes selection round N: the run returns an
	// error matching ErrKilled with the checkpoint already on disk — exactly
	// the state a real crash leaves behind. Requires a checkpoint directory
	// (Options.Durability.CheckpointDir); resume the run with
	// Options.Durability.Resume.
	CrashAfterRound int
	// CrashAfterSaves, when > 0, crashes after the Nth durable checkpoint
	// save regardless of its content (save 1 is the post-sampling
	// checkpoint). The chaos harness uses this to sweep every checkpoint
	// boundary without knowing the round structure in advance. Requires a
	// checkpoint directory.
	CrashAfterSaves int
}
