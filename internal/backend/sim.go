package backend

import "lambdatune/internal/engine"

// Sim adapts the engine simulator (engine.DB) to the Backend contract. It is
// the default backend, registered as "sim". Its extras beyond the contract —
// raw settings access, the execution hook, execution and permanent-index
// counts — serve scenario setup, studies and tests.
type Sim struct {
	db *engine.DB
}

func init() {
	Register("sim", func(spec Spec) (Backend, error) {
		hw := spec.Hardware
		if hw == (engine.Hardware{}) {
			hw = engine.DefaultHardware
		}
		return NewSim(spec.Flavor, spec.Catalog, hw), nil
	})
}

// NewSim creates a simulator backend with default settings and no indexes.
func NewSim(f engine.Flavor, catalog *engine.Catalog, hw engine.Hardware) *Sim {
	return &Sim{db: engine.NewDB(f, catalog, hw)}
}

// Flavor returns the emulated DBMS flavor.
func (s *Sim) Flavor() engine.Flavor { return s.db.Flavor() }

// Catalog returns the database schema and statistics.
func (s *Sim) Catalog() *engine.Catalog { return s.db.Catalog() }

// Hardware returns the host machine description.
func (s *Sim) Hardware() engine.Hardware { return s.db.Hardware() }

// Clock returns the virtual clock.
func (s *Sim) Clock() *engine.Clock { return s.db.Clock() }

// ApplyConfig resolves and installs the parameter part of a configuration.
func (s *Sim) ApplyConfig(cfg *engine.Config) error { return s.db.ApplyConfigParams(cfg) }

// DropTransientIndexes removes every non-permanent index.
func (s *Sim) DropTransientIndexes() { s.db.DropTransientIndexes() }

// CreateIndex creates an index and advances the clock by its creation time.
func (s *Sim) CreateIndex(def engine.IndexDef) float64 { return s.db.CreateIndex(def) }

// CreatePermanentIndex creates an initial index without advancing the clock.
func (s *Sim) CreatePermanentIndex(def engine.IndexDef) { s.db.CreatePermanentIndex(def) }

// DropIndex removes an index if present.
func (s *Sim) DropIndex(def engine.IndexDef) { s.db.DropIndex(def) }

// HasIndex reports whether the exact index exists.
func (s *Sim) HasIndex(def engine.IndexDef) bool { return s.db.HasIndex(def) }

// Indexes returns all current index definitions, sorted by key.
func (s *Sim) Indexes() []engine.IndexDef { return s.db.Indexes() }

// IndexCreationSeconds estimates an index's creation time without creating it.
func (s *Sim) IndexCreationSeconds(def engine.IndexDef) float64 {
	return s.db.IndexCreationSeconds(def)
}

// RunQuery executes q with a timeout, advancing the clock by the consumed time.
func (s *Sim) RunQuery(q *engine.Query, timeout float64) engine.ExecResult {
	return s.db.Execute(q, timeout)
}

// QuerySeconds returns q's runtime without executing it.
func (s *Sim) QuerySeconds(q *engine.Query) float64 { return s.db.QuerySeconds(q) }

// WorkloadSeconds sums QuerySeconds over the queries.
func (s *Sim) WorkloadSeconds(qs []*engine.Query) float64 { return s.db.WorkloadSeconds(qs) }

// Explain returns the estimated cost of each join operator in q's plan.
func (s *Sim) Explain(q *engine.Query) []engine.JoinCost { return s.db.Explain(q) }

// PlanCost returns the optimizer's total cost estimate for q.
func (s *Sim) PlanCost(q *engine.Query) float64 { return s.db.Plan(q).EstCost() }

// Snapshot returns an independent replica for parallel candidate evaluation.
func (s *Sim) Snapshot() Backend { return &Sim{db: s.db.Snapshot()} }

// AbsorbSnapshot folds a replica's operation counters back into this
// instance. Non-Sim backends are ignored.
func (s *Sim) AbsorbSnapshot(o Backend) {
	if snap, ok := o.(*Sim); ok {
		s.db.AbsorbSnapshot(snap.db)
	}
}

// SetFaultInjector installs an engine-side fault injector (nil detaches it).
func (s *Sim) SetFaultInjector(fi engine.FaultInjector) { s.db.SetFaultInjector(fi) }

// HasFaultInjector reports whether an injector is installed.
func (s *Sim) HasFaultInjector() bool { return s.db.HasFaultInjector() }

// QueryAborts returns the injected-query-abort count.
func (s *Sim) QueryAborts() int { return s.db.QueryAborts() }

// IndexFailures returns the injected-index-failure count.
func (s *Sim) IndexFailures() int { return s.db.IndexFailures() }

// SetExecHook observes every query execution (the scaling study attaches real
// CPU cost to simulated executions with it). Snapshots inherit the hook, so it
// must be safe for concurrent use.
func (s *Sim) SetExecHook(h engine.ExecHook) { s.db.SetExecHook(h) }

// Settings returns a copy of the raw parameter assignment.
func (s *Sim) Settings() engine.Settings { return s.db.Settings() }

// SetSettings installs a raw parameter assignment, bypassing configuration
// scripts.
func (s *Sim) SetSettings(set engine.Settings) { s.db.SetSettings(set) }

// ResetSettings restores the default parameter assignment.
func (s *Sim) ResetSettings() { s.db.ResetSettings() }

// Executions returns how many query executions completed.
func (s *Sim) Executions() int { return s.db.Executions() }

// PlanCacheStats returns the engine's plan-memoization counters, shared with
// every snapshot taken from this instance.
func (s *Sim) PlanCacheStats() engine.PlanCacheStats { return s.db.PlanCacheStats() }

// SetPlanCache switches the engine's plan memoization on or off.
func (s *Sim) SetPlanCache(on bool) { s.db.SetPlanCache(on) }

// PlanCacheEnabled reports whether the engine memoizes plans.
func (s *Sim) PlanCacheEnabled() bool { return s.db.PlanCacheEnabled() }

// PermanentIndexCount returns the number of initial indexes.
func (s *Sim) PermanentIndexCount() int { return s.db.PermanentIndexCount() }

// String describes the instance.
func (s *Sim) String() string { return s.db.String() }
