// Package backend defines the seam between λ-Tune's tuning core and the
// database system being tuned. The paper observes the DBMS through exactly
// four surfaces — timed query execution under a configuration, EXPLAIN join
// costs, index-creation cost, and configuration acceptance (ALTER SYSTEM /
// CREATE INDEX) — and Backend codifies those surfaces plus the accessors the
// pipeline needs (flavor, catalog, hardware, virtual clock), snapshotting for
// parallel evaluation, fault injection, and the plan-cache toggle. Everything
// above this package (core/tuner, core/selector, core/evaluator, core/prompt,
// the baselines, the bench harness, and the public API) talks to a Backend;
// only scenario setup and studies that need the simulator's extras (raw
// settings, execution hooks) hold the concrete *Sim.
//
// Implementations register an Opener under a name (Register); Open
// instantiates one from a Spec. The built-in simulator registers as "sim" and
// the instrumented decorator (package backend/instrumented) as
// "instrumented". Any implementation must pass the conformance suite in
// backend/backendtest.
package backend

import (
	"fmt"
	"sort"
	"sync"

	"lambdatune/internal/engine"
)

// Backend is the narrow interface the tuning core sees. The engine package
// remains the vocabulary — Query, Config, IndexDef, Clock, Catalog and
// friends are plain value/data types shared by every implementation — but the
// only behavior the core may invoke lives here.
//
// Clock semantics: RunQuery and CreateIndex advance the backend's virtual
// clock by the time they consume; ApplyConfig, Explain and the pure
// measurement helpers (QuerySeconds, WorkloadSeconds, IndexCreationSeconds,
// PlanCost) do not. The clock is monotone — nothing ever rewinds it.
type Backend interface {
	// Flavor returns the DBMS dialect (drives parameter catalogs and prompt
	// wording).
	Flavor() engine.Flavor
	// Catalog returns the schema and statistics of the tuned database.
	Catalog() *engine.Catalog
	// Hardware describes the host machine (memory, cores) for the prompt.
	Hardware() engine.Hardware
	// Clock returns the backend's virtual clock. All tuning costs are charged
	// to it.
	Clock() *engine.Clock

	// ApplyConfig resolves and installs the parameter part of a configuration
	// (paper surface: ALTER SYSTEM acceptance). Indexes are handled
	// separately so the evaluator can create them lazily (§5.1). A refused
	// configuration returns an error wrapping *engine.ConfigRejectedError.
	ApplyConfig(cfg *engine.Config) error
	// DropTransientIndexes removes every index created by CreateIndex,
	// keeping permanent (initial) ones.
	DropTransientIndexes()

	// CreateIndex creates an index (idempotent), advances the clock by its
	// creation time, and returns the seconds spent (paper surface:
	// index-creation cost).
	CreateIndex(def engine.IndexDef) float64
	// CreatePermanentIndex creates an index that survives
	// DropTransientIndexes without advancing the clock (scenario setup and
	// what-if advisors).
	CreatePermanentIndex(def engine.IndexDef)
	// DropIndex removes an index if present, permanent ones included.
	DropIndex(def engine.IndexDef)
	// HasIndex reports whether the exact index exists.
	HasIndex(def engine.IndexDef) bool
	// Indexes returns all current index definitions, sorted by key.
	Indexes() []engine.IndexDef
	// IndexCreationSeconds estimates an index's creation time under the
	// current configuration without creating it or advancing the clock.
	IndexCreationSeconds(def engine.IndexDef) float64

	// RunQuery executes q with a timeout in virtual seconds (math.Inf(1) for
	// none), advancing the clock by the time consumed — the full runtime on
	// completion, the timeout on interruption (paper surface: timed query
	// execution).
	RunQuery(q *engine.Query, timeout float64) engine.ExecResult
	// QuerySeconds returns q's runtime under the current configuration
	// without executing it or advancing the clock.
	QuerySeconds(q *engine.Query) float64
	// WorkloadSeconds sums QuerySeconds over the queries (no clock advance).
	WorkloadSeconds(qs []*engine.Query) float64

	// Explain plans q under the current configuration and returns the
	// estimated cost of each join operator (paper surface: EXPLAIN join
	// costs). No clock advance.
	Explain(q *engine.Query) []engine.JoinCost
	// PlanCost returns the optimizer's total cost estimate for q — the
	// what-if costing surface the index-advisor baselines compare hypothetical
	// index sets with. No clock advance.
	PlanCost(q *engine.Query) float64

	// Snapshot returns an independent replica for parallel candidate
	// evaluation: its own clock starting at the parent's current time, its
	// own configuration and index set, shared immutable statistics.
	Snapshot() Backend
	// AbsorbSnapshot folds a replica's operation counters back into this
	// instance. evaluator.Pool snapshots one replica per worker and absorbs
	// them after each round.
	AbsorbSnapshot(Backend)

	// SetFaultInjector installs an engine-side fault injector (query aborts,
	// index-build failures); nil detaches it.
	SetFaultInjector(engine.FaultInjector)
	// HasFaultInjector reports whether an injector is installed. Injected
	// fault sequences are defined on the primary's clock, so the selector
	// evaluates sequentially while one is.
	HasFaultInjector() bool
	// QueryAborts returns how many query executions injected faults killed.
	QueryAborts() int
	// IndexFailures returns how many index builds injected faults failed.
	IndexFailures() int

	// PlanCacheStats returns the plan-memoization counters (hits, misses,
	// evictions), shared with every snapshot taken from this instance.
	PlanCacheStats() engine.PlanCacheStats
	// SetPlanCache switches plan memoization on or off. Memoization never
	// changes observable results — only host CPU time — so the toggle exists
	// for benchmarking and debugging, not for correctness.
	SetPlanCache(on bool)
	// PlanCacheEnabled reports whether plans are memoized. Components that
	// layer their own result memoization on top of the backend (the
	// evaluator's schedule-order memo) consult it so one toggle governs
	// every caching layer.
	PlanCacheEnabled() bool
}

// Spec carries everything an Opener needs to instantiate a backend for one
// tuned database.
type Spec struct {
	Flavor   engine.Flavor
	Catalog  *engine.Catalog
	Hardware engine.Hardware
}

// Opener instantiates a backend from a spec.
type Opener func(Spec) (Backend, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Opener{}
)

// Register makes a backend implementation available under name. It panics on
// a duplicate or empty name — registration is an init-time programming
// contract, like database/sql drivers.
func Register(name string, open Opener) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || open == nil {
		panic("backend: Register with empty name or nil opener")
	}
	if _, dup := registry[name]; dup {
		panic("backend: Register called twice for " + name)
	}
	registry[name] = open
}

// Open instantiates the backend registered under name.
func Open(name string, spec Spec) (Backend, error) {
	registryMu.RLock()
	open, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (registered: %v)", name, List())
	}
	if spec.Catalog == nil {
		return nil, fmt.Errorf("backend: open %q: spec has no catalog", name)
	}
	return open(spec)
}

// List returns the registered backend names, sorted.
func List() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
