package lambdatune

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"lambdatune/internal/backend"
	"lambdatune/internal/backend/instrumented"
	"lambdatune/internal/core/tuner"
	"lambdatune/internal/engine"
	"lambdatune/internal/llm"
	"lambdatune/internal/obs"
	"lambdatune/internal/workload"
)

// RunID derives the checkpoint identity of a workload+seed pair — the
// filename stem checkpoints are stored under in Options.Durability.CheckpointDir
// (sanitized for the filesystem by the store).
func RunID(workload string, seed int64) string {
	return workload + "-seed" + strconv.FormatInt(seed, 10)
}

// DBMS selects the emulated database flavor.
type DBMS int

// Supported DBMS flavors.
const (
	Postgres DBMS = DBMS(engine.Postgres)
	MySQL    DBMS = DBMS(engine.MySQL)
)

// Hardware describes the machine the database runs on; the prompt conveys
// exactly these two properties (paper §3.1).
type Hardware struct {
	Cores    int
	MemoryGB int
}

// DefaultHardware matches the paper's EC2 p3.2xlarge testbed.
var DefaultHardware = Hardware{Cores: 8, MemoryGB: 61}

func (h Hardware) toEngine() engine.Hardware {
	if h.Cores <= 0 {
		h = DefaultHardware
	}
	return engine.Hardware{Cores: h.Cores, MemoryBytes: int64(h.MemoryGB) << 30}
}

// Column describes a table column with its statistics.
type Column struct {
	Name       string
	WidthBytes int
	Distinct   int64
}

// Table describes a base table with statistics for the cost model.
type Table struct {
	Name        string
	Rows        int64
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []string
}

// Client is the language model λ-Tune samples configurations from. Any type
// with these methods works — wrap your favorite LLM API, or use
// NewSimulatedLLM for the bundled deterministic knowledge model.
//
// The context carries cancellation and deadlines: implementations should
// abort the call when ctx is done and honor its deadline when the transport
// supports one (Options.Resilience installs a real per-call deadline).
// Clients that expose a sampling temperature can additionally implement
// TemperatureClient; plain clients are called at their own default.
type Client interface {
	// Complete returns one full configuration script for the prompt.
	Complete(ctx context.Context, prompt string) (string, error)
	// Name identifies the model.
	Name() string
}

// TemperatureClient is an optional capability: clients implementing it
// receive the run's Options.Temperature per call instead of sampling at
// their own default. NewSimulatedLLM's client implements it.
type TemperatureClient interface {
	Client
	// CompleteT is Complete with an explicit sampling temperature.
	CompleteT(ctx context.Context, prompt string, temperature float64) (string, error)
}

// NewSimulatedLLM returns the deterministic GPT-4 stand-in used by the
// reproduction (see DESIGN.md §2). The seed drives its temperature sampling.
func NewSimulatedLLM(seed int64) Client { return llm.NewSimClient(seed) }

// Document is one retrievable text for retrieval-augmented prompting.
type Document struct {
	Title string
	Text  string
}

// WithRetrieval decorates a client with retrieval-augmented generation (the
// extension sketched in the paper's §2): for each prompt, the most relevant
// documents from the corpus are prepended as grounding context. Pass nil to
// use the bundled tuning-guide corpus.
func WithRetrieval(inner Client, corpus []Document) Client {
	docs := make([]llm.Document, len(corpus))
	for i, d := range corpus {
		docs[i] = llm.Document{Title: d.Title, Text: d.Text}
	}
	if len(docs) == 0 {
		docs = llm.DefaultCorpus()
	}
	return llm.NewRAGClient(inner, docs)
}

// Database is a tunable database instance: schema statistics, a live
// configuration, and a virtual clock. It is backed by a backend.Backend —
// the bundled simulator by default (see DESIGN.md §8).
type Database struct {
	db backend.Backend
	// rt / tkey link a database born from Runtime.Benchmark back to its warm
	// template, so the runtime can serve the template's digests and prompt.
	// Zero for standalone databases.
	rt   *Runtime
	tkey templateKey
	// pristine marks a template snapshot whose configuration still matches
	// the template's defaults: no settings applied, no indexes created, no
	// backend rewrap. While it holds, the prompt generated from it equals the
	// template's and the runtime may serve it from its per-template cache.
	pristine bool
}

// NewDatabase creates a database from a schema description. Table names are
// case-insensitive, so two tables whose names differ only in case are an
// error. The tables are read, never modified.
func NewDatabase(dbms DBMS, name string, tables []Table, hw Hardware) (*Database, error) {
	ts := make([]engine.Table, len(tables))
	seen := make(map[string]string, len(tables))
	for i, t := range tables {
		key := strings.ToLower(t.Name)
		if prev, ok := seen[key]; ok {
			return nil, fmt.Errorf("lambdatune: duplicate table %q (also declared as %q)", t.Name, prev)
		}
		seen[key] = t.Name
		cols := make([]engine.Column, len(t.Columns))
		for j, c := range t.Columns {
			cols[j] = engine.Column{Name: c.Name, WidthBytes: c.WidthBytes, Distinct: c.Distinct}
		}
		ts[i] = engine.Table{
			Name: t.Name, Rows: t.Rows, Columns: cols,
			PrimaryKey: t.PrimaryKey, ForeignKeys: t.ForeignKeys,
		}
	}
	cat := engine.NewCatalog(name, ts)
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	db, err := backend.Open("sim", backend.Spec{
		Flavor: engine.Flavor(dbms), Catalog: cat, Hardware: hw.toEngine(),
	})
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// Workload is a set of named OLAP queries.
type Workload struct {
	name    string
	queries []*engine.Query
}

// Name returns the workload label.
func (w *Workload) Name() string { return w.name }

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.queries) }

// QueryNames lists the query identifiers in order.
func (w *Workload) QueryNames() []string {
	out := make([]string, len(w.queries))
	for i, q := range w.queries {
		out[i] = q.Name
	}
	return out
}

// ParseWorkload compiles SQL texts into a workload. Queries keep the given
// order; names label results.
func ParseWorkload(name string, queries map[string]string) (*Workload, error) {
	w := &Workload{name: name}
	// Deterministic order: sort by name.
	names := make([]string, 0, len(queries))
	for n := range queries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		q, err := engine.PrepareQuery(n, queries[n])
		if err != nil {
			return nil, err
		}
		w.queries = append(w.queries, q)
	}
	return w, nil
}

// Benchmark returns a ready database and workload for one of the paper's
// benchmarks: "tpch-1", "tpch-10", "tpcds-1", or "job".
func Benchmark(name string, dbms DBMS) (*Database, *Workload, error) {
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
	return &Database{db: db}, &Workload{name: wl.Name, queries: wl.Queries}, nil
}

// BenchmarkNames lists the built-in benchmark identifiers.
func BenchmarkNames() []string { return workload.Names() }

// Trace records one tuning run as a hierarchical span tree (run → prompt /
// llm.sample / selection → round → candidate → query / index.build / schedule)
// with virtual-clock timestamps and host wall-clock annotations. Pass it in
// Options.Observability.Trace, then export with WriteJSONL/WriteFile or render a per-phase
// cost breakdown with SummaryTable. Tracing is passive: a traced run selects
// the same configuration, byte for byte, as an untraced one, and the span
// tree itself is deterministic for a fixed workload/seed/parallelism (wall
// times are annotations, never inputs).
type Trace struct {
	tr *obs.Tracer
}

// NewTrace creates an empty trace. One Trace can record several runs; their
// span trees accumulate.
func NewTrace() *Trace { return &Trace{tr: obs.NewTracer()} }

// Len returns the number of recorded spans.
func (t *Trace) Len() int { return t.tr.Len() }

// WriteJSONL writes the recorded spans as JSON Lines, one span per line, in
// deterministic depth-first order.
func (t *Trace) WriteJSONL(w io.Writer) error { return t.tr.WriteJSONL(w) }

// WriteFile writes the spans as a JSONL trace file (the format the
// `lambdatune trace-summary` subcommand reads).
func (t *Trace) WriteFile(path string) error { return t.tr.WriteFile(path) }

// SummaryTable renders the per-phase cost breakdown of the recorded spans.
func (t *Trace) SummaryTable() string { return obs.SummaryTable(t.tr.Summarize()) }

// Tracer exposes the underlying span recorder, so servers (the lambdatuned
// job service's /v1/jobs/{id}/trace endpoints) can retain per-job traces,
// export their records, and follow spans live while a run is still in flight.
// The counterpart of Metrics.Registry.
func (t *Trace) Tracer() *obs.Tracer { return t.tr }

// Metrics is a registry of counters, gauges, and histograms a tuning run
// feeds (tuner_* series, plus backend_* series when the database is
// instrumented). Pass it in Options.Observability.Metrics, then export with
// WritePrometheus (text exposition format) or String (expvar-compatible
// JSON).
type Metrics struct {
	reg *obs.Registry
}

// NewMetrics creates an empty metrics registry. One registry can span
// several runs; counters accumulate.
func NewMetrics() *Metrics { return &Metrics{reg: obs.NewRegistry()} }

// Snapshot returns the current value of every metric; histograms contribute
// <name>_count and <name>_sum entries.
func (m *Metrics) Snapshot() map[string]float64 { return m.reg.Snapshot() }

// WritePrometheus writes the registry in Prometheus text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.reg.WritePrometheus(w) }

// String renders the registry as an expvar-compatible JSON object.
func (m *Metrics) String() string { return m.reg.String() }

// Registry exposes the underlying registry, so servers (the CLI's
// -metrics-addr listener, the lambdatuned job service) can mount it on their
// HTTP mux.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// PhaseCost is one row of a run's per-phase cost breakdown.
type PhaseCost struct {
	// Phase is the cost category: "llm", "prompt", "eval", "index-build", or
	// "schedule".
	Phase string
	// Spans counts the phase's leaf spans.
	Spans int
	// VirtSeconds / WallSeconds are the phase's total virtual-clock cost and
	// host wall-clock cost.
	VirtSeconds float64
	WallSeconds float64
}

// Telemetry condenses a run's trace and metrics: span/event totals, the
// per-phase cost breakdown, and a metrics snapshot.
type Telemetry struct {
	// Spans / Events count the run's recorded spans and span events.
	Spans  int
	Events int
	// Phases is the per-phase cost breakdown, most expensive (virtual) first.
	Phases []PhaseCost
	// Metrics is the registry snapshot at the end of the run (nil when
	// Options.Observability.Metrics was not set).
	Metrics map[string]float64
}

func toTelemetry(s *obs.Summary) *Telemetry {
	if s == nil {
		return nil
	}
	t := &Telemetry{Spans: s.Spans, Events: s.Events, Metrics: s.Metrics}
	for _, p := range s.Phases {
		t.Phases = append(t.Phases, PhaseCost{
			Phase: p.Phase, Spans: p.Spans,
			VirtSeconds: p.VirtSeconds, WallSeconds: p.WallSeconds,
		})
	}
	return t
}

// ProgressPoint is one best-so-far improvement during tuning, on the
// database's virtual clock.
type ProgressPoint struct {
	TuningSeconds float64
	BestSeconds   float64
}

// FaultReport is a tuning run's resilience telemetry: what failed, what the
// failures cost in virtual time, and how the pipeline degraded. All fields
// are zero on a clean run.
type FaultReport struct {
	// LLMCalls / LLMFailures / LLMRetries count attempts against the LLM,
	// their failures, and backoff re-attempts (populated when
	// Options.Resilience is set).
	LLMCalls    int
	LLMFailures int
	LLMRetries  int
	// BreakerTrips counts circuit-breaker openings; FallbackCalls counts
	// requests served by the fallback client.
	BreakerTrips  int
	FallbackCalls int
	// BackoffSeconds / BreakerWaitSeconds / FailedCallSeconds are the
	// virtual time spent between retries, waiting out open breaker windows,
	// and inside failed calls — all included in Result.TuningSeconds.
	BackoffSeconds     float64
	BreakerWaitSeconds float64
	FailedCallSeconds  float64
	// DroppedSamples counts LLM samples abandoned after per-sample retries.
	DroppedSamples int
	// QueryAborts / IndexFailures count engine faults survived during
	// configuration selection.
	QueryAborts   int
	IndexFailures int
	// DegradedToDefault reports that no LLM candidate beat the default
	// configuration and the returned best is the pre-tuning baseline.
	DegradedToDefault bool
}

// Any reports whether the run observed any fault or degradation.
func (r FaultReport) Any() bool { return tuner.FaultReport(r).Any() }

// String summarizes the report in one line.
func (r FaultReport) String() string { return tuner.FaultReport(r).String() }

// Result reports a completed tuning run.
type Result struct {
	// BestScript is the winning configuration as a SQL command script
	// (ALTER SYSTEM SET / CREATE INDEX).
	BestScript string
	// BestSeconds is the full-workload execution time under the winning
	// configuration, in simulated seconds.
	BestSeconds float64
	// DefaultSeconds is the time under the configuration that was live
	// before tuning.
	DefaultSeconds float64
	// TuningSeconds is the total virtual time the run consumed, including
	// index creations and interrupted evaluations. With Options.Evaluation.Parallelism
	// > 1 it models N replicas evaluating concurrently: each round costs the
	// slowest replica's elapsed time.
	TuningSeconds float64
	// EvalWallSeconds is the real wall-clock time of the configuration
	// selection phase — the quantity Options.Evaluation.Parallelism reduces.
	EvalWallSeconds float64
	// PromptTokens counts the tokens of the generated prompt.
	PromptTokens int
	// Candidates is the number of configurations obtained from the LLM.
	Candidates int
	// Progress traces best-so-far improvements.
	Progress []ProgressPoint
	// Warnings lists non-fatal issues (skipped unknown parameters etc.).
	Warnings []string
	// Faults is the run's resilience telemetry (zero-valued on a clean run).
	Faults FaultReport
	// Telemetry condenses the run's trace and metrics. Non-nil whenever
	// Options.Observability.Trace or Options.Observability.Metrics was set.
	Telemetry *Telemetry
	// Resumed reports that the run continued from a durable checkpoint
	// (Options.Durability.Resume) instead of starting fresh.
	Resumed bool
	// CheckpointFellBack reports that the live checkpoint was corrupt (torn
	// write) and the run resumed from the previous generation instead.
	CheckpointFellBack bool

	best *engine.Config
}

// Speedup returns DefaultSeconds / BestSeconds.
func (r *Result) Speedup() float64 {
	if r.BestSeconds <= 0 {
		return 0
	}
	return r.DefaultSeconds / r.BestSeconds
}

// Indexes lists the winning configuration's index recommendations as
// "table(column)" strings.
func (r *Result) Indexes() []string {
	if r.best == nil {
		return nil
	}
	out := make([]string, len(r.best.Indexes))
	for i, ix := range r.best.Indexes {
		out[i] = ix.Key()
	}
	return out
}

// Parameters returns the winning configuration's parameter settings.
func (r *Result) Parameters() map[string]string {
	if r.best == nil {
		return nil
	}
	out := make(map[string]string, len(r.best.Params))
	for k, v := range r.best.Params {
		out[k] = v
	}
	return out
}

// Tune runs the λ-Tune pipeline (paper Algorithm 1) against the database.
// It is TuneContext with context.Background() — use TuneContext to bound
// the run with a deadline or cancel it.
func (d *Database) Tune(w *Workload, client Client, opts Options) (*Result, error) {
	return d.TuneContext(context.Background(), w, client, opts)
}

// TuneContext runs the λ-Tune pipeline (paper Algorithm 1) against the
// database. Cancelling ctx stops the run promptly — in-flight LLM calls are
// cancelled, and evaluation workers stop within one query execution —
// returning an error satisfying errors.Is(err, ctx.Err()).
//
// Errors: invalid opts return ErrInvalidOptions, a nil or empty workload
// ErrEmptyWorkload, a query naming a table or column the database lacks
// ErrUnknownRelation, a workload whose default runtime is not finite
// ErrNonFiniteCost, and a run whose every LLM sample failed
// ErrNoUsableSample (all matchable with errors.Is).
//
// TuneContext is a one-shot Runtime: it builds a private shared-nothing
// Runtime for exactly this run and tunes through it, so the standalone and
// Runtime paths are one code path. Behavior is identical to pre-Runtime
// releases — no admission gate, no tenant breaker, and a memo nobody else
// can share.
func (d *Database) TuneContext(ctx context.Context, w *Workload, client Client, opts Options) (*Result, error) {
	rt := NewRuntime(RuntimeOptions{})
	defer rt.Close()
	return rt.TuneContext(ctx, d, w, client, opts)
}

// Apply installs the tuning result's winning configuration on the database:
// parameters set, recommended indexes created (the virtual clock advances by
// the creation time).
func (d *Database) Apply(r *Result) error {
	if r == nil || r.best == nil {
		return fmt.Errorf("lambdatune: no configuration to apply")
	}
	return d.install(r.best)
}

// ApplyScript parses and installs a configuration script directly.
func (d *Database) ApplyScript(script string) error {
	cfg, _, err := engine.ParseScript(d.db.Flavor(), "user", script)
	if err != nil {
		return err
	}
	return d.install(cfg)
}

// install replaces the live configuration with cfg: tuning-created indexes
// dropped, parameters set, cfg's indexes created.
func (d *Database) install(cfg *engine.Config) error {
	d.pristine = false
	d.db.DropTransientIndexes()
	if err := d.db.ApplyConfig(cfg); err != nil {
		return err
	}
	for _, ix := range cfg.Indexes {
		d.db.CreateIndex(ix)
	}
	return nil
}

// WorkloadSeconds returns the workload's execution time under the current
// configuration without advancing the clock.
func (d *Database) WorkloadSeconds(w *Workload) float64 {
	return d.db.WorkloadSeconds(w.queries)
}

// QuerySeconds returns per-query runtimes under the current configuration,
// keyed by query name.
func (d *Database) QuerySeconds(w *Workload) map[string]float64 {
	out := make(map[string]float64, len(w.queries))
	for _, q := range w.queries {
		out[q.Name] = d.db.QuerySeconds(q)
	}
	return out
}

// ResetConfiguration restores default parameters and drops all indexes
// created through tuning. Applying an empty configuration resets every
// parameter to its default, so this works on any backend.
func (d *Database) ResetConfiguration() {
	d.pristine = false
	d.db.DropTransientIndexes()
	_ = d.db.ApplyConfig(&engine.Config{ID: "reset"})
}

// ClockSeconds returns the database's virtual time.
func (d *Database) ClockSeconds() float64 { return d.db.Clock().Now() }

// Instrument wraps the database's backend with the telemetry decorator:
// from this call on, every ApplyConfig, CreateIndex, RunQuery, and Explain
// is counted and timed (wall-clock and virtual-clock) into a metrics
// registry, the decorator's only sink. Call once, before tuning;
// instrumenting an already-instrumented database layers a second decorator.
// The decorator starts on a fresh registry; a run with
// Options.Observability.Metrics set re-points it at that registry before
// the run's first backend call, and nothing is carried across.
// BackendReport reads the registry the decorator currently feeds.
func (d *Database) Instrument() {
	// The decorator counts every backend call; serving the template's cached
	// prompt would skip the Explain calls behind it, so an instrumented
	// database is never pristine.
	d.pristine = false
	d.db = instrumented.Wrap(d.db)
}

// BackendReport renders the per-surface telemetry of the registry the
// instrumented decorator currently feeds — the one Instrument created, or
// the Metrics of the latest run that set Options.Observability.Metrics —
// plus the backend's plan-cache counters, formatted for humans. It returns
// "" when the database is not instrumented.
func (d *Database) BackendReport() string {
	ib, ok := d.db.(*instrumented.Backend)
	if !ok {
		return ""
	}
	report := ib.Report()
	if pc := d.db.PlanCacheStats(); pc.Lookups() > 0 {
		report += fmt.Sprintf("\n  %-12s %s", "plan_cache", pc)
	}
	return report
}

// SetPlanCache enables or disables the backend's plan-memoization cache
// (enabled by default on the simulator). Memoization only changes host CPU
// time — every simulated measurement, the virtual clock, and the tuning
// outcome are identical either way — so the toggle exists for benchmarking
// the cache itself.
func (d *Database) SetPlanCache(on bool) { d.db.SetPlanCache(on) }

// PlanCacheStats returns the backend's plan-memoization counters (hits,
// misses, evictions).
func (d *Database) PlanCacheStats() engine.PlanCacheStats { return d.db.PlanCacheStats() }
