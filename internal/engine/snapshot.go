package engine

// snapBase records a snapshot's operation counters at birth, so the parent
// can later absorb only the delta the snapshot accumulated (AbsorbSnapshot).
type snapBase struct {
	executed      int
	queryAborts   int
	indexFailures int
}

// ExecHook observes every query execution on the instance: q is the query,
// seconds the (timeout-capped) virtual runtime about to be charged. Snapshots
// inherit the hook, and the parallel evaluator runs snapshots concurrently,
// so implementations must be safe for concurrent use. The E13 scaling study
// uses the hook to attach a real CPU cost to simulated executions.
type ExecHook func(q *Query, seconds float64)

// SetExecHook installs (or, with nil, removes) the execution observer.
func (db *DB) SetExecHook(h ExecHook) { db.execHook = h }

// HasFaultInjector reports whether a fault injector is installed. The
// selector uses it to keep evaluation on the primary instance: an injector's
// fault sequence is defined on the primary instance's clock and rng, so it
// cannot be replayed deterministically across parallel replicas.
func (db *DB) HasFaultInjector() bool { return db.faults != nil }

// Snapshot returns an independent clone of the instance for parallel
// candidate evaluation: the parameter assignment, the index set, and the
// operation counters are copied, while the catalog (immutable statistics) and
// hardware description are shared. The clone gets its own virtual clock
// starting at the parent's current time, so per-candidate runtimes measured
// on a snapshot are exactly what the primary would have measured.
//
// The fault injector is deliberately not inherited — snapshots evaluate
// fault-free (see HasFaultInjector). The exec hook is inherited and must
// therefore be concurrency-safe.
//
// The clone plans into the parent's plan store (plancache.go): a plan
// either of them stores is a hit for the other at once, and for every other
// snapshot of the family. Only the per-DB signature maps are rebuilt, lazily,
// against the store's shared ids. The planner scratch arena is deliberately
// not inherited.
//
// Cost: O(parameters + indexes) — a few hundred map entries — independent of
// catalog size, so snapshotting per worker per round is cheap.
func (db *DB) Snapshot() *DB {
	clone := &DB{
		flavor:        db.flavor,
		catalog:       db.catalog,
		hw:            db.hw,
		clock:         db.clock,
		settings:      db.settings.Clone(),
		eff:           db.eff,
		keyEff:        db.keyEff,
		indexes:       make(map[string]IndexDef, len(db.indexes)),
		permanent:     make(map[string]bool, len(db.permanent)),
		executed:      db.executed,
		queryAborts:   db.queryAborts,
		indexFailures: db.indexFailures,
		execHook:      db.execHook,
		plans:         db.plans,
		plansOff:      db.plansOff,
		indexSigDirty: true,
	}
	for k, v := range db.indexes {
		clone.indexes[k] = v
	}
	for k := range db.permanent {
		clone.permanent[k] = true
	}
	clone.base = snapBase{
		executed:      db.executed,
		queryAborts:   db.queryAborts,
		indexFailures: db.indexFailures,
	}
	return clone
}

// AbsorbSnapshot folds the operation counters a snapshot accumulated since
// Snapshot back into the parent, so introspection (Executions, QueryAborts,
// IndexFailures) covers work done on replicas. The clock is deliberately not
// merged: the parallel evaluator's round rule — elapsed time is the max over
// workers, modeling N parallel DBMS replicas — governs time, and the pool
// advances the parent clock itself (see evaluator.Pool).
func (db *DB) AbsorbSnapshot(s *DB) {
	if s == nil {
		return
	}
	db.executed += s.executed - s.base.executed
	db.queryAborts += s.queryAborts - s.base.queryAborts
	db.indexFailures += s.indexFailures - s.base.indexFailures
}
