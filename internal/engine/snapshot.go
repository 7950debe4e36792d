package engine

// ExecHook observes every query execution on the instance: q is the query,
// seconds the (timeout-capped) virtual runtime about to be charged. Snapshots
// inherit the hook, and the parallel evaluator runs snapshots concurrently,
// so implementations must be safe for concurrent use. The E13 scaling study
// uses the hook to attach a real CPU cost to simulated executions.
type ExecHook func(q *Query, seconds float64)

// SetExecHook installs (or, with nil, removes) the execution observer.
func (db *DB) SetExecHook(h ExecHook) { db.execHook = h }

// Snapshot returns an independent clone of the instance for parallel
// candidate evaluation: the parameter assignment and the index set are
// copied, while the catalog (immutable statistics) and hardware description
// are shared. The clone gets its own virtual clock starting at the parent's
// current time, so per-candidate runtimes measured on a snapshot are exactly
// what the primary would have measured.
//
// The exec hook is inherited and must therefore be concurrency-safe.
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
	return clone
}
