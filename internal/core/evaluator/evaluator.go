// Package evaluator implements λ-Tune's configuration evaluation component
// (paper §5, Algorithm 3): lazy index creation, query→index relevance
// mapping, and timeout-bounded query execution in the order chosen by the
// DP scheduler.
package evaluator

import (
	"context"
	"slices"
	"sort"
	"strings"

	"lambdatune/internal/backend"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
)

// ConfigMeta is the per-configuration bookkeeping of Table 2.
type ConfigMeta struct {
	// Time is the accumulated execution time of *completed* queries.
	Time float64
	// IsComplete reports whether the last Evaluate pass finished every
	// query it was given without interruption.
	IsComplete bool
	// IndexTime is the accumulated index-creation time.
	IndexTime float64
	// Completed records fully processed queries by name.
	Completed map[string]bool
	// Aborts counts query executions killed by injected engine faults;
	// aborted queries stay un-completed and are retried in a later round.
	Aborts int
	// QueryTimes records each completed query's observed execution seconds,
	// populated only when the evaluator's RecordTimes flag is on (the racing
	// strategy's cost surrogate fits from these pairs). Nil otherwise, so
	// non-racing checkpoint encodings are unchanged.
	QueryTimes map[string]float64
}

// NewConfigMeta initializes the bookkeeping (paper: ConfigMeta(0,False,0,∅)).
func NewConfigMeta() *ConfigMeta {
	return &ConfigMeta{Completed: map[string]bool{}}
}

// Throughput is the configuration's completed-queries-per-second, used by
// the selector to prioritize promising configurations.
func (m *ConfigMeta) Throughput() float64 {
	if m.Time <= 0 {
		return 0
	}
	return float64(len(m.Completed)) / m.Time
}

// Evaluator runs configurations against the database backend.
type Evaluator struct {
	DB backend.Backend
	// UseScheduler enables the DP query ordering (§5.3); when false, queries
	// run in their given order — the paper's "Query Scheduler off" ablation.
	UseScheduler bool
	// LazyIndexes enables lazy index creation (§5.1); when false, all of a
	// configuration's indexes are created up front.
	LazyIndexes bool
	// Seed drives the k-means clustering inside the scheduler.
	Seed int64
	// Memo caches pure per-round recomputations (DP orderings, query→index
	// relevance maps) across evaluation rounds. Nil disables memoization;
	// results are identical either way.
	Memo *Memo
	// Trace/Span/Metrics are the optional telemetry hooks: when both Trace
	// and Span (the current candidate's span) are set, Evaluate opens
	// schedule / index.build / query child spans under Span; Metrics feeds
	// the tuner_* counters. All nil-safe — an untraced evaluator pays one
	// nil check per site.
	Trace   *obs.Tracer
	Span    *obs.Span
	Metrics *obs.Registry
	// RecordTimes makes Evaluate record each completed query's execution
	// seconds in meta.QueryTimes (racing's surrogate fits from them).
	RecordTimes bool
	// Owner names the tuning job this evaluator works for ("" outside a
	// shared Runtime). It attributes shared-memo entries and slot leases to
	// the job for cross-job telemetry and fair scheduling; it never affects
	// virtual-clock outcomes.
	Owner string
	// Slots, when non-nil, is the Runtime's cross-job admission gate: each
	// Evaluate pass holds one slot while it runs. The gate bounds host
	// concurrency only — logical parallelism and every virtual-clock outcome
	// are identical at any slot count.
	Slots *SharedSlots
	// FreeIndexes lists index keys (engine.IndexDef.Key) whose build cost
	// another candidate in the same racing rung already paid: they are
	// created without advancing the virtual clock and dropped when the
	// Evaluate pass ends. Nil outside racing rungs.
	FreeIndexes map[string]bool

	// freeCreated tracks the free indexes built during the current Evaluate
	// pass so they can be dropped on every return path.
	freeCreated []engine.IndexDef
}

// startSpan opens a child span under the current candidate span, or returns
// nil when tracing is off (no candidate span or no tracer).
func (e *Evaluator) startSpan(name string, virt float64, attrs ...obs.Attr) *obs.Span {
	if e.Span == nil {
		return nil
	}
	return e.Trace.Start(e.Span, name, virt, attrs...)
}

// New creates an evaluator with the paper's defaults (scheduler and lazy
// creation on). The round memo follows the backend's plan-cache toggle so
// one switch governs every memoization layer.
func New(db backend.Backend) *Evaluator {
	e := &Evaluator{DB: db, UseScheduler: true, LazyIndexes: true, Seed: 1}
	if db.PlanCacheEnabled() {
		e.Memo = NewMemo("", nil, 0)
	}
	return e
}

// QueryIndexMap associates each query with the configuration indexes it
// could exploit: an index is relevant when its leading column, on the
// indexed table, is one of the query's join or filter columns (paper §5.1).
// Each query's indexes come sorted by key, nil when none is relevant. Index
// keys and lookup strings are computed once per call, not once per (query,
// index) pair.
func QueryIndexMap(queries []*engine.Query, cfg *engine.Config) map[*engine.Query][]engine.IndexDef {
	out := make(map[*engine.Query][]engine.IndexDef, len(queries))
	ci := newConfigIndexes(cfg)
	for _, q := range queries {
		out[q] = ci.relevant(q)
	}
	return out
}

// configIndexes is a configuration's index list prepared for relevance
// tests: each index's key, and its positions grouped by the
// "lower(table).leading column" string a query column must spell.
// QueryIndexMap and the memo's miss path share it.
type configIndexes struct {
	defs   []engine.IndexDef
	keys   []string
	byLead map[string][]int // lookup string → ascending positions
	pos    []int            // scratch: positions of the relevant indexes
	col    []byte           // scratch: the "table.column" being looked up
}

func newConfigIndexes(cfg *engine.Config) *configIndexes {
	ci := &configIndexes{
		defs:   cfg.Indexes,
		keys:   make([]string, len(cfg.Indexes)),
		byLead: make(map[string][]int, len(cfg.Indexes)),
	}
	for i, ix := range cfg.Indexes {
		ci.keys[i] = ix.Key()
		lead, _, _ := strings.Cut(ix.Columns, "+")
		lookup := strings.ToLower(ix.Table) + "." + lead
		ci.byLead[lookup] = append(ci.byLead[lookup], i)
	}
	return ci
}

// add appends to pos the positions of the indexes led by table.column,
// spelled as the query's analysis spells them.
func (ci *configIndexes) add(pos []int, table, column string) []int {
	ci.col = append(append(append(ci.col[:0], table...), '.'), column...)
	return append(pos, ci.byLead[string(ci.col)]...)
}

// relevant returns the indexes relevant to q in key order, nil when there
// are none: those led by either side of a join condition or by a filter
// column, LIKE filters included. The positions are put back in configuration
// order, a column the query names twice counting once, and sorted by the
// precomputed keys with the same sort.Slice as ever, so indexes with equal
// keys land where they always did.
func (ci *configIndexes) relevant(q *engine.Query) []engine.IndexDef {
	pos := ci.pos[:0]
	for _, j := range q.Analysis.Joins {
		pos = ci.add(pos, j.LeftTable, j.LeftColumn)
		pos = ci.add(pos, j.RightTable, j.RightColumn)
	}
	for _, f := range q.Analysis.Filters {
		pos = ci.add(pos, f.Table, f.Column)
	}
	ci.pos = pos
	if len(pos) == 0 {
		return nil
	}
	if len(pos) > 1 {
		slices.Sort(pos)
		pos = slices.Compact(pos)
		sort.Slice(pos, func(a, b int) bool { return ci.keys[pos[a]] < ci.keys[pos[b]] })
	}
	defs := make([]engine.IndexDef, len(pos))
	for i, p := range pos {
		defs[i] = ci.defs[p]
	}
	return defs
}

// Evaluate is Algorithm 3. It runs the given (not yet completed) queries
// under configuration cfg with a total time budget of timeout simulated
// seconds, creating relevant indexes lazily, and updates meta in place.
// Cancelling ctx stops the pass before the next query execution — at most
// one in-flight query completes after ctx.Done() — leaving meta in a
// consistent, resumable state (completed queries stay recorded).
//
// The caller is responsible for having applied cfg's parameters and dropped
// any transient indexes of prior configurations (see Apply).
func (e *Evaluator) Evaluate(ctx context.Context, cfg *engine.Config, queries []*engine.Query, timeout float64, meta *ConfigMeta) {
	release, err := e.Slots.Acquire(ctx, e.Owner)
	if err != nil {
		// Canceled while waiting for a slot: nothing ran, nothing changes.
		meta.IsComplete = false
		return
	}
	defer release()
	remaining := timeout
	created := map[string]bool{}
	for _, ix := range e.DB.Indexes() {
		created[ix.Key()] = true
	}
	meta.IsComplete = true
	clock := e.DB.Clock()
	defer e.dropFreeIndexes()

	// The scheduling preamble costs no virtual time (host CPU only), so its
	// span is a point on the virtual axis; the wall annotation carries the
	// real cost, and the memo-hit attributes explain it.
	schedSpan := e.startSpan("schedule", clock.Now())
	indexMap, mapHit := e.Memo.queryIndexMap(queries, cfg, e.Owner)
	ordered := queries
	orderHit := false
	if e.UseScheduler {
		ordered, orderHit = e.Memo.order(queries, indexMap, e.DB.IndexCreationSeconds, e.Seed, e.Owner)
	}
	// Memo hits depend on which pool worker warmed the shared memo first, so
	// they are annotations, not part of the deterministic trace shape.
	schedSpan.SetAttrs(obs.Bool("scheduler", e.UseScheduler),
		obs.Annot(obs.Bool("map_memo_hit", mapHit)), obs.Annot(obs.Bool("order_memo_hit", orderHit)))
	schedSpan.End(clock.Now())

	if !e.LazyIndexes {
		// Eager creation: every configuration index up front.
		for _, ix := range cfg.Indexes {
			if !created[ix.Key()] {
				meta.IndexTime += e.createIndex(ix)
				created[ix.Key()] = true
			}
		}
	}

	for _, q := range ordered {
		if ctx.Err() != nil {
			// Canceled: the pass did not finish; progress so far remains in
			// meta for a later resume.
			meta.IsComplete = false
			return
		}
		if e.LazyIndexes {
			for _, ix := range indexMap[q] {
				if !created[ix.Key()] {
					meta.IndexTime += e.createIndex(ix)
					created[ix.Key()] = true
				}
			}
		}
		qSpan := e.startSpan("query", clock.Now(), obs.String("query", q.Name))
		res := e.DB.RunQuery(q, remaining)
		qSpan.SetAttrs(obs.Float("seconds", res.Seconds),
			obs.Bool("complete", res.Complete), obs.Bool("aborted", res.Aborted))
		qSpan.End(clock.Now())
		e.Metrics.Counter("tuner_queries_total").Inc()
		if res.Aborted {
			// Injected engine fault: the wasted time still counts against
			// the round's budget, but the round degrades gracefully — the
			// remaining queries keep running and the aborted one is retried
			// in a later round (meta.Completed is the resume checkpoint).
			e.Metrics.Counter("tuner_query_aborts_total").Inc()
			meta.Aborts++
			meta.IsComplete = false
			remaining -= res.Seconds
			if remaining <= 0 {
				break
			}
			continue
		}
		if !res.Complete {
			meta.IsComplete = false
			break
		}
		remaining -= res.Seconds
		meta.Time += res.Seconds
		meta.Completed[q.Name] = true
		if e.RecordTimes {
			if meta.QueryTimes == nil {
				meta.QueryTimes = map[string]float64{}
			}
			meta.QueryTimes[q.Name] = res.Seconds
		}
	}
}

// Schedule returns the order Evaluate would run queries in under cfg — the
// query→index relevance map plus the DP schedule (§5.3) — without executing
// anything or advancing the virtual clock. The caller must have applied cfg
// first (index-creation estimates read the live configuration). With the
// scheduler off the given order comes back unchanged.
func (e *Evaluator) Schedule(queries []*engine.Query, cfg *engine.Config) []*engine.Query {
	indexMap, _ := e.Memo.queryIndexMap(queries, cfg, e.Owner)
	if !e.UseScheduler {
		return queries
	}
	ordered, _ := e.Memo.order(queries, indexMap, e.DB.IndexCreationSeconds, e.Seed, e.Owner)
	return ordered
}

// createIndex builds one index under an index.build span and bumps the
// index-build counter. Indexes listed in FreeIndexes — another candidate in
// the same racing rung already paid their build cost — are materialized
// without advancing the virtual clock and torn down when the pass ends.
func (e *Evaluator) createIndex(ix engine.IndexDef) float64 {
	clock := e.DB.Clock()
	if e.FreeIndexes[ix.Key()] {
		sp := e.startSpan("index.build", clock.Now(),
			obs.String("index", ix.Key()), obs.Bool("shared", true))
		e.DB.CreatePermanentIndex(ix)
		e.freeCreated = append(e.freeCreated, ix)
		sp.SetAttrs(obs.Float("seconds", 0))
		sp.End(clock.Now())
		e.Metrics.Counter("race_shared_index_builds_total").Inc()
		return 0
	}
	sp := e.startSpan("index.build", clock.Now(), obs.String("index", ix.Key()))
	secs := e.DB.CreateIndex(ix)
	sp.SetAttrs(obs.Float("seconds", secs))
	sp.End(clock.Now())
	e.Metrics.Counter("tuner_index_builds_total").Inc()
	return secs
}

// dropFreeIndexes removes the zero-cost shared indexes of the current pass.
// They are created as permanent (so DropTransientIndexes and per-pass
// accounting leave them alone mid-pass) and must not leak into later
// candidates' evaluations.
func (e *Evaluator) dropFreeIndexes() {
	for _, ix := range e.freeCreated {
		e.DB.DropIndex(ix)
	}
	e.freeCreated = e.freeCreated[:0]
}

// Apply switches the database to configuration cfg: transient indexes of the
// previous configuration are dropped (the paper notes indexes are implicitly
// dropped when Evaluate terminates) and cfg's parameters are installed.
func (e *Evaluator) Apply(cfg *engine.Config) error {
	e.DB.DropTransientIndexes()
	return e.DB.ApplyConfig(cfg)
}
