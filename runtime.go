package lambdatune

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"time"

	"lambdatune/internal/backend"
	"lambdatune/internal/backend/instrumented"
	"lambdatune/internal/core/evaluator"
	"lambdatune/internal/core/prompt"
	"lambdatune/internal/core/tuner"
	"lambdatune/internal/engine"
	"lambdatune/internal/faults"
	"lambdatune/internal/llm"
	"lambdatune/internal/obs"
	"lambdatune/internal/runstate"
	"lambdatune/internal/workload"
)

// RuntimeOptions configures a shared Runtime (see NewRuntime). The zero
// value is valid and yields a runtime whose runs behave exactly like
// standalone Tune calls: no admission gate, no tenant breakers — only the
// cross-job memo reuse, which changes host CPU time and never outcomes.
type RuntimeOptions struct {
	// EvalSlots bounds how many evaluation workers execute concurrently
	// across every job on the runtime (0 = unbounded). The gate is
	// wall-clock only: each job keeps its logical Parallelism and its
	// virtual-clock accounting, so per-job results are identical at any
	// slot count. Leases are granted by weighted fair share: deficit
	// round-robin across tenants (see TenantWeights), round-robin across a
	// tenant's jobs.
	EvalSlots int

	// TenantWeights assigns per-tenant fair-share weights on the evaluation
	// slot gate: while backlogged, a tenant receives slots in proportion to
	// its weight. Unlisted tenants (and weights < 1) count as weight 1, so
	// no assignment can starve anyone. Nil means every tenant weighs 1 —
	// equal shares.
	TenantWeights map[string]int

	// MemoCapacity bounds each namespace's schedule-order memo to this many
	// entries (0 = the built-in default, 4096). The segmented-LRU lifecycle
	// evicts cold entries individually once the bound is hit; sizing it below
	// the cross-job working set trades recompute for memory, never
	// correctness.
	MemoCapacity int

	// TenantBreakerThreshold is the number of consecutive failed LLM calls
	// that trips one tenant's circuit breaker on the shared transport
	// (0 = breaker off). Breaker state is isolated per Options.Tenant.
	TenantBreakerThreshold int
	// TenantBreakerCooldown is how long a tripped breaker stays open, on
	// the wall clock (tenants' virtual clocks are mutually incomparable).
	// Defaults to 30s when the breaker is enabled.
	TenantBreakerCooldown time.Duration
	// TenantMaxInFlight bounds one tenant's concurrent LLM calls
	// (0 = unbounded).
	TenantMaxInFlight int

	// Metrics, when set, receives the runtime_* series: pool lease waits,
	// per-namespace memo hits/misses/cross-job hits, per-tenant breaker
	// state. The same registry can back a /metrics endpoint (lambdatuned
	// mounts it).
	Metrics *Metrics

	// Logger, when set, receives the runtime's structured operational log:
	// slot grants on the evaluation gate (Debug) and tenant breaker
	// transitions (Info/Warn). Purely observational — logging changes no
	// outcome. Nil discards.
	Logger *slog.Logger
}

// Runtime owns the per-process resources that standalone Tune calls build
// per run: the evaluation admission gate, the per-tenant LLM gateway, warm
// benchmark templates (schema + plan cache), and cross-job schedule/relevance
// memos. Jobs borrow from it via Runtime.Benchmark + Runtime.TuneContext and
// tenants tuning similar schemas hit warm state instead of recomputing it.
//
// Determinism contract: everything the Runtime shares is either provably
// host-CPU-only (plan caches, schedule memos, relevance maps — pure
// functions of their keys) or wall-clock-only (evaluation slots, breaker
// cooldowns). A job's virtual-clock outcome — selection, scripts, tuning
// seconds — is byte-identical to the same job run standalone, at any
// parallelism, slot count, and co-tenancy.
//
// Isolation contract: memo namespaces are keyed by (DBMS flavor, catalog
// fingerprint, workload digest), so jobs share memo state only when their
// simulated plans are interchangeable by construction; LLM breaker state and
// in-flight bounds are keyed by Options.Tenant and never cross tenants.
//
// A Runtime is safe for concurrent use. Close only marks it unusable for
// new work; in-flight jobs finish normally.
type Runtime struct {
	opts    RuntimeOptions
	reg     *obs.Registry // nil when Metrics unset
	slots   *evaluator.SharedSlots
	gateway *llm.TenantGateway

	mu         sync.Mutex
	closed     bool
	jobSeq     int
	templates  map[templateKey]*benchTemplate
	namespaces map[namespaceKey]*evaluator.Memo
}

// templateKey identifies a warm benchmark template.
type templateKey struct {
	benchmark string
	flavor    engine.Flavor
}

// benchTemplate is one warm built-in benchmark: a primary backend whose plan
// cache accumulates across jobs (jobs run on snapshots of it) and the
// canonical interned workload, so every job on the template shares query
// pointers and therefore memo entries. The namespace key components are
// computed once here — both are SHA-256 digests over the full catalog and
// workload, and recomputing them per admission was the single largest
// constant cost on the thousand-short-jobs path.
type benchTemplate struct {
	db        backend.Backend
	w         *Workload
	catalogFP string // d.db.Catalog().Fingerprint() of the template backend
	wdigest   string // runstate.WorkloadDigest of the canonical workload
	// defaultOnce guards defaultSecs: the canonical workload's runtime under
	// the template's default (never-tuned) configuration. Every job on this
	// template needs the same number for its Result baseline, so it is
	// computed once here instead of per admission. Safe because the template
	// backend itself is never tuned — jobs mutate snapshots — and plan-cache
	// absorption cannot change deterministic query times.
	defaultOnce sync.Once
	defaultSecs float64
	// prompts caches generated tuning prompts per prompt.Options value.
	// Generation is a pure function of (default configuration, workload,
	// hardware, options) — the LLM seed plays no part — so every job on the
	// template shares one prompt per options value instead of re-running
	// snippet valuation and compression per admission.
	promptMu sync.Mutex
	prompts  map[prompt.Options]*prompt.Result
}

// tenantOfJobID maps a runtime job ID ("tenant#seq") back to its tenant —
// the fairness key of the evaluation slot gate. The sequence suffix is
// stripped at the last '#' so tenant names containing '#' stay intact.
func tenantOfJobID(job string) string {
	if i := strings.LastIndexByte(job, '#'); i >= 0 {
		return job[:i]
	}
	return job
}

// namespaceKey scopes one cross-job memo: jobs share entries only when
// flavor, schema (catalog fingerprint), and workload (digest over names and
// SQL) all match — the preconditions under which schedule orderings and
// relevance maps are interchangeable across jobs.
type namespaceKey struct {
	flavor   engine.Flavor
	catalog  string
	workload string
}

// RuntimeStats is a point-in-time snapshot of a Runtime's shared-state
// telemetry, aggregated over all namespaces.
type RuntimeStats struct {
	// Jobs counts runs started on the runtime.
	Jobs int
	// Namespaces counts distinct memo namespaces materialized so far.
	Namespaces int
	// MemoLookups / MemoHits / MemoCrossJobHits aggregate the namespace
	// memos' probe accounting (relevance + DP-ordering layers). A cross-job
	// hit is a hit on an entry computed by a different job.
	MemoLookups      uint64
	MemoHits         uint64
	MemoCrossJobHits uint64
	// MemoEvictions counts entries the segmented-LRU memo lifecycles
	// evicted across all namespaces.
	MemoEvictions uint64
	// MemoHitRetention is the fraction of schedule-memo hits served from
	// protected (re-hit) entries — how well the lifecycle keeps the hot set
	// resident. 0 when idle.
	MemoHitRetention float64
}

// CrossJobHitRate returns MemoCrossJobHits / MemoLookups (0 when idle).
func (s RuntimeStats) CrossJobHitRate() float64 {
	if s.MemoLookups == 0 {
		return 0
	}
	return float64(s.MemoCrossJobHits) / float64(s.MemoLookups)
}

// NewRuntime builds a shared runtime. RuntimeOptions{} is valid (see its
// doc); Close the runtime when done with it.
func NewRuntime(ro RuntimeOptions) *Runtime {
	rt := &Runtime{
		opts:       ro,
		templates:  make(map[templateKey]*benchTemplate),
		namespaces: make(map[namespaceKey]*evaluator.Memo),
	}
	if ro.Metrics != nil {
		rt.reg = ro.Metrics.reg
	}
	rt.slots = evaluator.NewWeightedSlots(evaluator.SlotsConfig{
		Capacity: ro.EvalSlots,
		Registry: rt.reg,
		Logger:   ro.Logger,
		TenantOf: tenantOfJobID,
		Weight: func(tenant string) int {
			return ro.TenantWeights[tenant]
		},
	})
	rt.gateway = llm.NewTenantGateway(llm.TenantGatewayOptions{
		BreakerThreshold: ro.TenantBreakerThreshold,
		BreakerCooldown:  ro.TenantBreakerCooldown,
		MaxInFlight:      ro.TenantMaxInFlight,
		Registry:         rt.reg,
		Logger:           ro.Logger,
	})
	return rt
}

// Close marks the runtime unusable for new jobs. In-flight jobs finish
// normally; shared memo state is released to the collector with the runtime.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
	return nil
}

// Stats returns the runtime's current shared-state telemetry.
func (rt *Runtime) Stats() RuntimeStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := RuntimeStats{Jobs: rt.jobSeq, Namespaces: len(rt.namespaces)}
	var schedHits, schedProtected uint64
	for _, m := range rt.namespaces {
		ms := m.Stats()
		st.MemoLookups += ms.Lookups
		st.MemoHits += ms.Hits
		st.MemoCrossJobHits += ms.CrossJobHits
		st.MemoEvictions += ms.Evictions
		schedHits += ms.ScheduleHits
		schedProtected += ms.ScheduleProtectedHits
	}
	if schedHits > 0 {
		st.MemoHitRetention = float64(schedProtected) / float64(schedHits)
	}
	return st
}

// Benchmark returns a database and workload for one of the built-in
// benchmarks, like the package-level Benchmark — but backed by the runtime's
// warm template: the database is a snapshot sharing the template's catalog
// and plan cache (host-CPU savings only), and the workload is the canonical
// interned instance, so all jobs on this (benchmark, dbms) pair share query
// pointers and memo entries.
func (rt *Runtime) Benchmark(name string, dbms DBMS) (*Database, *Workload, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, nil, ErrRuntimeClosed
	}
	key := templateKey{benchmark: strings.ToLower(name), flavor: engine.Flavor(dbms)}
	tm := rt.templates[key]
	if tm == nil {
		wl, err := workload.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		db, err := backend.Open("sim", backend.Spec{
			Flavor: engine.Flavor(dbms), Catalog: wl.Catalog, Hardware: engine.DefaultHardware,
		})
		if err != nil {
			return nil, nil, err
		}
		tm = &benchTemplate{
			db:        db,
			w:         &Workload{name: wl.Name, queries: wl.Queries},
			catalogFP: db.Catalog().Fingerprint(),
			wdigest:   runstate.WorkloadDigest(wl.Name, wl.Queries),
		}
		rt.templates[key] = tm
	}
	return &Database{db: tm.db.Snapshot(), rt: rt, tkey: key, pristine: true}, tm.w, nil
}

// defaultWorkloadSeconds returns the workload's runtime under the default
// configuration for one job, serving the per-template cache when the job's
// database is a still-pristine snapshot of a runtime template and computing
// it on the spot otherwise. Pristine snapshots replay the template's
// deterministic engine state, so the cached number is bit-identical to what
// every such snapshot would produce itself — and the first caller computes
// it on its own snapshot, never on the template database, whose caches
// other jobs may be snapshotting concurrently.
func (rt *Runtime) defaultWorkloadSeconds(d *Database, w *Workload) float64 {
	if d.rt == rt && d.pristine {
		rt.mu.Lock()
		tm := rt.templates[d.tkey]
		rt.mu.Unlock()
		if tm != nil && tm.w == w {
			tm.defaultOnce.Do(func() {
				tm.defaultSecs = d.db.WorkloadSeconds(w.queries)
			})
			return tm.defaultSecs
		}
	}
	return d.db.WorkloadSeconds(w.queries)
}

// sharedPrompt returns the template-cached tuning prompt for this job's
// (workload, prompt options) pair, generating and caching it on first use.
// Nil when the job cannot share one — foreign or already-mutated database,
// or a generation error (the per-job path will surface it properly).
// Generation is a pure function of (default configuration, workload,
// hardware, options), so a pristine snapshot yields the template's prompt;
// like defaultWorkloadSeconds, the first caller generates from its own
// snapshot so the shared template database is never touched here.
func (rt *Runtime) sharedPrompt(d *Database, w *Workload, po prompt.Options) *prompt.Result {
	if d.rt != rt || !d.pristine {
		return nil
	}
	rt.mu.Lock()
	tm := rt.templates[d.tkey]
	rt.mu.Unlock()
	if tm == nil || tm.w != w {
		return nil
	}
	tm.promptMu.Lock()
	defer tm.promptMu.Unlock()
	if pr, ok := tm.prompts[po]; ok {
		return pr
	}
	res, err := prompt.Generate(d.db, w.queries, d.db.Hardware(), po)
	if err != nil {
		return nil
	}
	if tm.prompts == nil {
		tm.prompts = make(map[prompt.Options]*prompt.Result, 2)
	}
	tm.prompts[po] = &res
	return &res
}

// Tune is TuneContext with context.Background().
func (rt *Runtime) Tune(d *Database, w *Workload, client Client, opts Options) (*Result, error) {
	return rt.TuneContext(context.Background(), d, w, client, opts)
}

// TuneContext runs the λ-Tune pipeline for one job on the shared runtime.
// It is Database.TuneContext with the runtime's resources injected: the
// job's evaluators lease from the shared admission gate, its LLM calls pass
// through opts.Tenant's breaker scope, and its schedule/relevance memos live
// in the namespace keyed by (flavor, catalog fingerprint, workload digest).
// Per-job results are byte-identical to a standalone run; only host wall
// time changes. See Database.TuneContext for semantics and errors.
func (rt *Runtime) TuneContext(ctx context.Context, d *Database, w *Workload, client Client, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if w == nil || len(w.queries) == 0 {
		return nil, ErrEmptyWorkload
	}
	if client == nil {
		return nil, fmt.Errorf("%w: nil Client", ErrInvalidOptions)
	}
	jobID, memo, err := rt.admit(d, w, opts)
	if err != nil {
		return nil, err
	}
	defaultSeconds := rt.defaultWorkloadSeconds(d, w)
	if math.IsInf(defaultSeconds, 0) || math.IsNaN(defaultSeconds) {
		return nil, fmt.Errorf("%w: the default configuration runs the workload in %v seconds", ErrNonFiniteCost, defaultSeconds)
	}
	topts := opts.toTuner()
	topts.SharedPrompt = rt.sharedPrompt(d, w, topts.Prompt)
	// Tuning mutates the job database from here on (configs applied, indexes
	// created during evaluation), so its timings stop matching the template.
	d.pristine = false
	topts.SharedMemo = memo
	topts.Slots = rt.slots
	topts.JobID = jobID
	var (
		store    *runstate.Store
		fellBack bool
	)
	if opts.Durability.CheckpointDir != "" {
		store = runstate.NewStore(opts.Durability.CheckpointDir, RunID(w.name, opts.Seed))
		topts.Checkpoint = store
		if opts.Durability.Resume {
			st, fb, lerr := store.Load()
			if lerr != nil {
				return nil, fmt.Errorf("lambdatune: resume: %w", lerr)
			}
			fellBack = fb
			topts.Resume = st
		}
	}
	if opts.Observability.Metrics != nil {
		// Instrumented databases feed the backend_* surface series and plan
		// cache gauges into the run's registry.
		if ib, ok := d.db.(*instrumented.Backend); ok {
			ib.AttachMetrics(opts.Observability.Metrics.reg)
		}
	}
	var inner llm.Client = client
	if opts.Faults != nil {
		decorate, cleanup, ferr := wireFaults(d, opts, topts.Trace, topts.Resume, store, &inner)
		if ferr != nil {
			return nil, ferr
		}
		topts.DecorateState = decorate
		defer cleanup()
	}
	// Tenant scoping sits above the fault interceptor (injected faults
	// count against the tenant's breaker) and below the per-job
	// resilience layer the tuner adds (a breaker-open rejection is
	// non-retryable there, failing the sample immediately). Client is a
	// no-op when the gateway is inactive, and with enforcement off the
	// wrapper only instruments — it cannot change call outcomes.
	inner = rt.gateway.Client(opts.Tenant, inner)
	tn := tuner.New(d.db, inner, topts)
	res, err := tn.Tune(ctx, w.queries)
	if err != nil {
		return nil, err
	}
	rt.adoptPlans(d)
	out := &Result{
		BestSeconds:        res.BestTime,
		DefaultSeconds:     defaultSeconds,
		TuningSeconds:      res.TuningSeconds,
		EvalWallSeconds:    res.EvalWallSeconds,
		PromptTokens:       res.Prompt.TotalTokens,
		Candidates:         len(res.Candidates),
		Warnings:           res.Warnings,
		Faults:             FaultReport(res.Faults),
		Telemetry:          toTelemetry(res.Telemetry),
		Resumed:            opts.Durability.Resume,
		CheckpointFellBack: fellBack,
		best:               res.Best,
	}
	if res.Best != nil {
		out.BestScript = res.Best.Script(d.db.Flavor())
	}
	for _, ev := range res.Progress {
		out.Progress = append(out.Progress, ProgressPoint{TuningSeconds: ev.Clock, BestSeconds: ev.BestTime})
	}
	return out, nil
}

// admit registers one job: it allocates the job ID and resolves the job's
// memo namespace from the database's flavor, its catalog fingerprint, and
// the workload digest. For databases born from a runtime template with the
// canonical workload — the entire daemon hot path — both digests come from
// the template's cached copies; computing two SHA-256s over the full catalog
// and workload per admission dominated per-job constant cost before.
func (rt *Runtime) admit(d *Database, w *Workload, opts Options) (string, *evaluator.Memo, error) {
	var nsKey namespaceKey
	cached := false
	if d.rt == rt {
		rt.mu.Lock()
		if tm := rt.templates[d.tkey]; tm != nil && tm.w == w {
			nsKey = namespaceKey{flavor: d.db.Flavor(), catalog: tm.catalogFP, workload: tm.wdigest}
			cached = true
		}
		rt.mu.Unlock()
	}
	if !cached {
		nsKey = namespaceKey{
			flavor:   d.db.Flavor(),
			catalog:  d.db.Catalog().Fingerprint(),
			workload: runstate.WorkloadDigest(w.name, w.queries),
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return "", nil, ErrRuntimeClosed
	}
	rt.jobSeq++
	tenant := opts.Tenant
	if tenant == "" {
		tenant = "default"
	}
	jobID := fmt.Sprintf("%s#%d", tenant, rt.jobSeq)
	memo := rt.namespaces[nsKey]
	if memo == nil {
		ns := fmt.Sprintf("%s_%s_%s", strings.ToLower(nsKey.flavor.String()),
			nsKey.catalog[:8], nsKey.workload[:8])
		memo = evaluator.NewSharedMemo(ns, rt.reg, rt.opts.MemoCapacity)
		rt.namespaces[nsKey] = memo
		if rt.reg != nil {
			rt.reg.Gauge("runtime_memo_namespaces").Set(float64(len(rt.namespaces)))
		}
	}
	if rt.reg != nil {
		rt.reg.Counter("runtime_jobs_total").Inc()
	}
	return jobID, memo, nil
}

// adoptPlans folds a finished job's plan-cache write layer back into the
// warm template it was snapshotted from, so later jobs on the same template
// start with those plans already cached. Content-addressed, deterministic
// plans merge in any order; the fold is host-CPU-only by the same argument
// as the plan cache itself. A no-op for databases not born from a template
// of this runtime (or wrapped since, e.g. by Instrument).
func (rt *Runtime) adoptPlans(d *Database) {
	if d.rt != rt {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	tm := rt.templates[d.tkey]
	if tm == nil {
		return
	}
	tm.db.AbsorbSnapshot(d.db)
}

// wireFaults installs the fault injector and chaos kill points for one run —
// extracted from the pre-Runtime TuneContext body verbatim. It wraps *inner
// with the LLM fault interceptor and returns the checkpoint decorator that
// stamps the injector's RNG position, plus the cleanup that detaches the
// injector from the backend. tr is the run's tracer and resume its loaded
// checkpoint state (both may be nil).
func wireFaults(d *Database, opts Options, tr *obs.Tracer, resume *runstate.State, store *runstate.Store, inner *llm.Client) (func(*runstate.State), func(), error) {
	db := d.db
	seed := opts.Faults.Seed
	if seed == 0 {
		seed = opts.Seed
	}
	plan := faults.NewPlan(opts.Faults.LLMRate, opts.Faults.EngineRate)
	inj := faults.NewInjector(plan, seed, db.Clock())
	inj.SetTracer(tr)
	db.SetFaultInjector(inj)
	// The injector wraps the raw client, so the resilience layer (added
	// by the tuner on top) sees the injected faults as transport errors.
	*inner = llm.WithInterceptor(*inner, inj)
	if resume != nil && resume.Injector != nil {
		if resume.Injector.Seed != seed {
			db.SetFaultInjector(nil)
			return nil, nil, fmt.Errorf("%w: fault seed %d differs from checkpoint's %d",
				runstate.ErrCheckpointMismatch, seed, resume.Injector.Seed)
		}
		inj.RestoreEngine(resume.Injector.EngineDraws, resume.Injector.Counts)
	}
	// Chaos kill points: simulate a crash right after a durable
	// checkpoint — the bytes are on disk, the process "dies".
	if k := (&faults.Killer{AfterRound: opts.Faults.CrashAfterRound,
		AfterSaves: opts.Faults.CrashAfterSaves}); k.Armed() {
		store.AfterSave = func(st *runstate.State) error {
			round := 0
			if st.Round != nil {
				round = st.Round.Round
			}
			return k.AfterCheckpoint(round)
		}
	}
	// Every checkpoint carries the injector's RNG position, and a resumed
	// run fast-forwards a fresh injector there — so the fault sequence
	// after the crash matches the uninterrupted run's.
	decorate := func(st *runstate.State) {
		s, draws, counts := inj.Snapshot()
		st.Injector = &runstate.InjectorState{Seed: s, EngineDraws: draws, Counts: counts}
	}
	return decorate, func() { db.SetFaultInjector(nil) }, nil
}
