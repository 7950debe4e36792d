package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DB is one simulated database instance: a catalog with statistics, a live
// parameter assignment, and a set of indexes, all on a virtual clock.
type DB struct {
	flavor   Flavor
	catalog  *Catalog
	hw       Hardware
	clock    Clock
	settings Settings
	eff      effects
	// keyEff is eff restricted to the fields the planner reads (the
	// plan-cache key): maintenanceBytes zeroed, see installSettings.
	keyEff effects
	// indexes maps IndexDef.Key() → definition.
	indexes map[string]IndexDef
	// permanent marks indexes that survive DropTransientIndexes (the
	// "initial indexes" of scenario 1).
	permanent map[string]bool
	// execHook, when set, observes every query execution; snapshots inherit
	// it (see SetExecHook).
	execHook ExecHook
	// plans memoizes plans per (effects, index signature, query) and is
	// shared with every snapshot of this DB (see plancache.go); plansOff
	// bypasses it. groupKeys/groupSigs hold the lazily maintained sorted
	// key lists and interned content signatures per probe group — a
	// (table, leading column) pair, the granularity at which the planner
	// consults the index set; its probes read groupKeys directly
	// (groupIndexKeys). Mutations update one group (noteIndexChange)
	// and bump sigSeq; qsigs memoizes the per-query composition;
	// sigScratch is the full rebuild's reusable key buffer.
	plans         *planStore
	plansOff      bool
	groupKeys     map[string][]string
	groupSigs     map[string]uint32
	qsigs         map[*Query]querySigEntry
	sigScratch    []string
	sigSeq        uint64
	indexSigDirty bool
	// scratch holds the planner's reusable allocation arena (optimizer.go).
	// Never shared: snapshots start with a nil scratch of their own.
	scratch *plannerScratch
}

// NewDB creates a database with default settings and no indexes.
func NewDB(f Flavor, catalog *Catalog, hw Hardware) *DB {
	db := &DB{
		flavor:    f,
		catalog:   catalog,
		hw:        hw,
		indexes:   map[string]IndexDef{},
		permanent: map[string]bool{},
		plans:     &planStore{},
	}
	db.SetSettings(Params(f).Defaults())
	return db
}

// Flavor returns the emulated DBMS flavor.
func (db *DB) Flavor() Flavor { return db.flavor }

// Catalog returns the database schema and statistics.
func (db *DB) Catalog() *Catalog { return db.catalog }

// Hardware returns the host machine description.
func (db *DB) Hardware() Hardware { return db.hw }

// Clock returns the virtual clock.
func (db *DB) Clock() *Clock { return &db.clock }

// Settings returns a copy of the live parameter assignment.
func (db *DB) Settings() Settings { return db.settings.Clone() }

// SetSettings installs a full parameter assignment (missing parameters fall
// back to defaults).
func (db *DB) SetSettings(s Settings) {
	full := Params(db.flavor).Defaults()
	for k, v := range s {
		if _, ok := full[k]; ok {
			full[k] = v
		}
	}
	db.installSettings(full)
}

// installSettings takes ownership of a complete, validated assignment (every
// parameter present, values in domain) and re-derives the planner effects.
// Fast path for callers that already hold such a map — ResolveSettings
// returns one, so ApplyConfig skips the second defaults build that
// SetSettings would do.
func (db *DB) installSettings(full Settings) {
	db.settings = full
	db.eff = deriveEffects(db.flavor, full)
	// The plan-cache key drops maintenanceBytes: it prices index builds
	// (IndexCreationSeconds), never query plans, so a maintenance_work_mem
	// change must not invalidate memoized plans.
	db.keyEff = db.eff
	db.keyEff.maintenanceBytes = 0
}

// ResetSettings restores flavor defaults.
func (db *DB) ResetSettings() { db.SetSettings(nil) }

// ApplyConfig resolves and installs the parameter part of a configuration
// (indexes are handled separately so callers can create them lazily, per
// paper §5.1).
func (db *DB) ApplyConfig(c *Config) error {
	s, err := c.ResolveSettings(db.flavor)
	if err != nil {
		return err
	}
	db.installSettings(s)
	return nil
}

// HasIndex reports whether the exact index exists.
func (db *DB) HasIndex(def IndexDef) bool {
	_, ok := db.indexes[def.Key()]
	return ok
}

// groupIndexKeys returns the sorted keys of the indexes in probe group g:
// those on g's table whose leading key column is g's column. The per-group
// lists are the plan-cache signature's (plancache.go); they are rebuilt
// first when dirty, so the probes work with the cache off as well.
func (db *DB) groupIndexKeys(g string) []string {
	if db.indexSigDirty {
		db.rebuildGroupSigs()
	}
	return db.groupKeys[g]
}

// hasIndexOnColumn reports whether any index of probe group g exists, that
// is, one with g's column as its leading key on g's table.
func (db *DB) hasIndexOnColumn(g string) bool { return len(db.groupIndexKeys(g)) > 0 }

// indexPrefixMatch returns, among the indexes of probe group g, the longest
// key prefix whose trailing columns all name one of filters: the winning
// index's Columns and the prefix length, 0 when g holds no index. Composite
// indexes whose trailing key columns match further predicates narrow an
// index scan beyond the leading column. The group's keys come in ascending
// order and only a strictly longer prefix wins, so equally long prefixes go
// to the smallest index key and the choice never depends on map iteration
// order (snapshots copy the map).
func (db *DB) indexPrefixMatch(g string, filters []scanFilter) (cols string, n int) {
	for _, key := range db.groupIndexKeys(g) {
		def := db.indexes[key]
		m := 1
		_, rest, more := strings.Cut(def.Columns, "+")
		for more {
			var c string
			c, rest, more = strings.Cut(rest, "+")
			if !filtersColumn(filters, c) {
				break
			}
			m++
		}
		if m > n {
			cols, n = def.Columns, m
		}
	}
	return cols, n
}

// filtersColumn reports whether one of filters is on column c.
func filtersColumn(filters []scanFilter, c string) bool {
	for _, f := range filters {
		if f.column == c {
			return true
		}
	}
	return false
}

// Indexes returns all current index definitions, sorted by key.
func (db *DB) Indexes() []IndexDef {
	keys := make([]string, 0, len(db.indexes))
	for k := range db.indexes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]IndexDef, len(keys))
	for i, k := range keys {
		out[i] = db.indexes[k]
	}
	return out
}

// IndexCreationSeconds estimates how long creating the index takes under the
// current settings without creating it.
func (db *DB) IndexCreationSeconds(def IndexDef) float64 {
	t := db.catalog.Table(def.Table)
	if t == nil {
		return 0.05
	}
	rows := float64(t.Rows)
	cols := float64(len(def.ColumnList()))
	// Sort-dominated build: read + sort + write.
	units := rows*0.06*cols + float64(t.Pages())*trueSeqPage
	// maintenance_work_mem speeds the sort phase up to 40%.
	factor := 1.0
	if m := db.eff.maintenanceBytes; m > 0 {
		need := rows * 16
		if float64(m) >= need {
			factor = 0.6
		} else {
			factor = 1 - 0.4*float64(m)/need
		}
	}
	return units * factor / unitsPerSecond
}

// CreateIndex creates an index (idempotent) and advances the clock by its
// creation time. It returns the seconds spent (0 when it already existed).
func (db *DB) CreateIndex(def IndexDef) float64 {
	if db.HasIndex(def) {
		return 0
	}
	if db.catalog.Table(def.Table) == nil {
		return 0 // ignore indexes on unknown tables, as Postgres would error
	}
	secs := db.IndexCreationSeconds(def)
	db.indexes[def.Key()] = def
	db.noteIndexChange(def, true)
	db.clock.Advance(secs)
	return secs
}

// CreatePermanentIndex creates an index that survives DropTransientIndexes.
// Used to set up the "initial indexes" scenario; does not advance the clock.
func (db *DB) CreatePermanentIndex(def IndexDef) {
	if db.catalog.Table(def.Table) == nil {
		return
	}
	if _, ok := db.indexes[def.Key()]; !ok {
		db.noteIndexChange(def, true)
	}
	db.indexes[def.Key()] = def
	db.permanent[def.Key()] = true
}

// DropIndex removes an index if present (permanent ones included).
func (db *DB) DropIndex(def IndexDef) {
	if _, ok := db.indexes[def.Key()]; ok {
		db.noteIndexChange(def, false)
	}
	delete(db.indexes, def.Key())
	delete(db.permanent, def.Key())
}

// DropTransientIndexes removes every index created by CreateIndex, keeping
// permanent (initial) ones. Dropping is metadata-only and free, matching the
// paper's assumption that evaluation cost is dominated by creations.
func (db *DB) DropTransientIndexes() {
	for k := range db.indexes {
		if !db.permanent[k] {
			def := db.indexes[k]
			delete(db.indexes, k)
			db.noteIndexChange(def, false)
		}
	}
}

// PermanentIndexCount returns the number of initial indexes.
func (db *DB) PermanentIndexCount() int { return len(db.permanent) }

// Explain plans the query under the current configuration and returns the
// estimated cost of each join operator, keyed by its join condition.
func (db *DB) Explain(q *Query) []JoinCost {
	plan := db.cachedPlan(q)
	var out []JoinCost
	for _, s := range plan.Steps {
		if s.Join != nil {
			out = append(out, JoinCost{Condition: *s.Join, EstCost: s.EstCost})
		}
	}
	return out
}

// Plan exposes the chosen plan (for tests and the in-depth analysis tools).
// The returned plan may be served from the memoization cache and must be
// treated as immutable.
func (db *DB) Plan(q *Query) *Plan { return db.cachedPlan(q) }

// PlanCost returns the optimizer's total cost estimate for the query under
// the current configuration.
func (db *DB) PlanCost(q *Query) float64 { return db.cachedPlan(q).EstCost() }

// QuerySeconds returns the simulated runtime of the query under the current
// configuration without executing it or advancing the clock.
func (db *DB) QuerySeconds(q *Query) float64 {
	return db.cachedPlan(q).TrueSeconds()
}

// RunQuery runs the query with a timeout (in simulated seconds; pass
// math.Inf(1) for none). The clock advances by the time consumed — the full
// runtime on completion, or the timeout on interruption.
func (db *DB) RunQuery(q *Query, timeout float64) ExecResult {
	secs := db.QuerySeconds(q)
	capped := secs
	if timeout >= 0 && secs > timeout && !math.IsInf(timeout, 1) {
		capped = timeout
	}
	if db.execHook != nil {
		db.execHook(q, capped)
	}
	if capped < secs {
		db.clock.Advance(capped)
		return ExecResult{Seconds: capped, Complete: false}
	}
	db.clock.Advance(secs)
	return ExecResult{Seconds: secs, Complete: true}
}

// WorkloadSeconds sums QuerySeconds over the queries (no clock advance).
func (db *DB) WorkloadSeconds(qs []*Query) float64 {
	var sum float64
	for _, q := range qs {
		sum += db.QuerySeconds(q)
	}
	return sum
}

// String describes the instance.
func (db *DB) String() string {
	return fmt.Sprintf("%s[%s, %d tables, %d indexes]",
		db.flavor, db.catalog.Name, len(db.catalog.tables), len(db.indexes))
}
