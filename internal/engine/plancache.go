package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Plans are pure functions of (effective settings, index set, query): the
// planner reads nothing else, and nothing in it is randomized. That makes
// them memoizable — a repeat planning under an unchanged configuration can
// return the cached *Plan (and hence the identical TrueSeconds/EstCost)
// without re-running the join ordering. Only host CPU time changes; every
// simulated number, the virtual clock, and the fault-injection semantics
// stay byte-identical whether the cache is on or off.
//
// Key derivation:
//   - the effects struct is the settings fingerprint. It is the planner's
//     *only* view of the parameter assignment (a comparable value struct),
//     so two assignments normalizing to the same effects genuinely plan
//     identically — e.g. UDO toggling logging knobs hits the cache. The key
//     further drops maintenanceBytes (db.keyEff), which prices index builds
//     but never query plans.
//   - the index-set signature is content-addressed (sorted index keys,
//     interned to compact ids — see planStore), not a bare mutation counter:
//     selector rounds drop and re-create the same index sets over and over,
//     and a counter would miss on every round. The signature is further
//     restricted to the query's probe groups — the planner consults the
//     index set only through hasIndexOnColumn/indexPrefixMatch, which read
//     one group's sorted key list (groupKeys, below), and every group it
//     reads is a (table, leading column) pair derivable from the query's
//     filters and joins (Query.probes) — so creating or dropping an index
//     the query never probes (UDO toggles candidate indexes constantly)
//     does not invalidate the query's entry. Group key lists and
//     signatures are maintained incrementally per mutation
//     (noteIndexChange), and rebuilt before the next probe or lookup after
//     a snapshot or while the cache is off.
//   - the *Query pointer identifies the query. Queries are parsed once per
//     workload and never mutated afterwards.
//
// One store per family: a DB and every snapshot taken from it, and from
// those in turn, plan into one planStore. A plan one member stores is a hit
// for every other member at once (the parent, the sibling replicas of a
// parallel round, concurrent jobs on one Runtime template), so nothing is
// ever folded back. The store is locked; planning runs outside the lock.
// Eviction is generational: plans enter the current generation, and once it
// holds planGeneration plans the next store drops the old generation and
// makes the current one old. A hit in the old generation moves the plan into
// the current one, so a hit never grows the store and a hot set survives any
// number of turnovers. Each plan built is dropped at most once, so Evictions
// never exceeds Misses.

// PlanCacheStats reports plan-memoization counters. Hits and Misses count
// plan lookups; Evictions counts entries discarded to bound memory.
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Lookups is the total number of plan-cache probes.
func (s PlanCacheStats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate is Hits / Lookups (0 when the cache was never probed).
func (s PlanCacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// String renders "hits=H misses=M evictions=E (R% hit rate)".
func (s PlanCacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d (%.1f%% hit rate)",
		s.Hits, s.Misses, s.Evictions, 100*s.HitRate())
}

// planGeneration is how many plans the current generation takes before the
// next store turns the generations over. A JOB plan is about 1.3 KB; DESIGN
// §9 gives the measurements behind the size.
const planGeneration = 2048

// planKey identifies one memoized planning. All three components are exact —
// there are no collisions, only identical plans.
type planKey struct {
	eff effects
	sig string
	q   *Query
}

// planStore memoizes the plans of one DB family. ids interns probe-group
// signature contents (the sorted index keys of one group, NUL-joined) to
// small stable ids, which keeps planKey.sig a few bytes long (cheap to hash
// on every lookup) while staying exact: equal ids mean byte-equal contents,
// never a lossy hash. Sharing ids is what lets one member's signature match
// another's for the same index set.
type planStore struct {
	mu                      sync.Mutex
	cur, old                map[planKey]*Plan
	ids                     map[string]uint32
	hits, misses, evictions atomic.Uint64
}

// lookup returns the plan stored under key, counting the hit or the miss. A
// hit in the old generation moves the plan into the current one.
func (s *planStore) lookup(key planKey) (*Plan, bool) {
	s.mu.Lock()
	p, ok := s.cur[key]
	if !ok {
		if p, ok = s.old[key]; ok {
			delete(s.old, key)
			s.cur[key] = p
		}
	}
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return p, ok
}

// store inserts a plan, first turning the generations over when the current
// one is full: the old generation's plans are dropped and counted as
// evictions.
func (s *planStore) store(key planKey, p *Plan) {
	s.mu.Lock()
	if len(s.cur) >= planGeneration {
		s.evictions.Add(uint64(len(s.old)))
		s.old, s.cur = s.cur, make(map[planKey]*Plan, planGeneration)
	} else if s.cur == nil {
		s.cur = make(map[planKey]*Plan, 64)
	}
	s.cur[key] = p
	s.mu.Unlock()
}

// id returns the interned id of one probe group's signature content.
func (s *planStore) id(content string) uint32 {
	s.mu.Lock()
	id, ok := s.ids[content]
	if !ok {
		if s.ids == nil {
			s.ids = make(map[string]uint32, 16)
		}
		id = uint32(len(s.ids)) + 1
		s.ids[content] = id
	}
	s.mu.Unlock()
	return id
}

// SetPlanCache enables or disables plan memoization (enabled by default).
// Disabling stops this DB from reading or writing its store. Re-enabling gives
// it a fresh, empty store (which its later snapshots share), so it starts
// empty without clearing a store other DBs of its family still use.
// Simulated results are identical either way; the toggle exists for
// benchmarking the host-CPU effect.
func (db *DB) SetPlanCache(on bool) {
	if on && db.plansOff {
		db.plans = &planStore{}
		db.indexSigDirty = true // the signature ids belong to the old store
	}
	db.plansOff = !on
}

// PlanCacheEnabled reports whether plan memoization is currently on.
func (db *DB) PlanCacheEnabled() bool { return !db.plansOff }

// PlanCacheStats returns the counters of this DB's store, which it shares
// with the DB it was snapshotted from and with every snapshot taken from it.
func (db *DB) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:      db.plans.hits.Load(),
		Misses:    db.plans.misses.Load(),
		Evictions: db.plans.evictions.Load(),
	}
}

// querySigEntry memoizes one query's composed signature for one signature
// generation (sigSeq).
type querySigEntry struct {
	seq uint64
	sig string
}

// indexGroup returns the probe group an index belongs to: its (lowercase)
// table plus leading key column, the same key format computeProbes emits.
func indexGroup(def IndexDef) string {
	cols := def.Columns
	if i := strings.IndexByte(cols, '+'); i >= 0 {
		cols = cols[:i]
	}
	return def.Table + "\x00" + cols
}

// rebuildGroupSigs recomputes every probe group's signature from scratch —
// the slow path, used on first planning and after Snapshot (clones start with
// nil maps). The key list is sorted globally first, so every group's list is
// a sorted subsequence that noteIndexChange can then maintain incrementally.
func (db *DB) rebuildGroupSigs() {
	if db.groupKeys == nil {
		db.groupKeys = make(map[string][]string, 16)
		db.groupSigs = make(map[string]uint32, 16)
	} else {
		clear(db.groupKeys)
		clear(db.groupSigs)
	}
	keys := db.sigScratch[:0]
	for k := range db.indexes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	db.sigScratch = keys
	for _, k := range keys {
		g := indexGroup(db.indexes[k])
		db.groupKeys[g] = append(db.groupKeys[g], k)
	}
	for g, ks := range db.groupKeys {
		db.groupSigs[g] = db.plans.id(joinKeys(ks))
	}
	db.sigSeq++
	db.indexSigDirty = false
}

// joinKeys renders one group's sorted index keys as its signature content.
func joinKeys(ks []string) string {
	var b strings.Builder
	for _, k := range ks {
		b.WriteString(k)
		b.WriteByte(0)
	}
	return b.String()
}

// noteIndexChange records that the index def was added or removed. While the
// signature maps are live it updates just that group's sorted key list and
// re-interns its content — index-search baselines toggle one index per
// action, and a full rebuild per toggle would dominate their host CPU time.
// Either way the generation is bumped so per-query memos recompose lazily.
func (db *DB) noteIndexChange(def IndexDef, added bool) {
	if db.indexSigDirty || db.groupKeys == nil {
		db.indexSigDirty = true
		return
	}
	g, key := indexGroup(def), def.Key()
	ks := db.groupKeys[g]
	i := sort.SearchStrings(ks, key)
	if added {
		if i < len(ks) && ks[i] == key {
			return // already present; no signature change
		}
		ks = append(ks, "")
		copy(ks[i+1:], ks[i:])
		ks[i] = key
	} else {
		if i >= len(ks) || ks[i] != key {
			return // absent; no signature change
		}
		ks = append(ks[:i], ks[i+1:]...)
	}
	if len(ks) == 0 {
		delete(db.groupKeys, g)
		delete(db.groupSigs, g)
	} else {
		db.groupKeys[g] = ks
		db.groupSigs[g] = db.plans.id(joinKeys(ks))
	}
	db.sigSeq++
}

// querySig returns the content-addressed signature of the index subset that
// can influence q's plan: the interned ids of q's probe groups' signatures,
// concatenated in the query's fixed probe order. Empty groups contribute
// nothing — this is unambiguous because a group's content embeds its table
// and leading column in every index key, so distinct groups never share an
// id. Signatures are rebuilt only after an actual index mutation and
// memoized per query in between.
func (db *DB) querySig(q *Query) string {
	if db.indexSigDirty {
		db.rebuildGroupSigs()
	}
	if e, ok := db.qsigs[q]; ok && e.seq == db.sigSeq {
		return e.sig
	}
	probes := q.probes
	if probes == nil && (len(q.Analysis.Filters) > 0 || len(q.Analysis.Joins) > 0) {
		// Query built without PrepareQuery: derive the probe set on the fly.
		probes = computeProbes(q.Analysis)
	}
	var sig string
	if len(db.groupSigs) > 0 {
		buf := make([]byte, 0, 4*len(probes))
		for _, g := range probes {
			if id, ok := db.groupSigs[g]; ok {
				buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
		}
		sig = string(buf)
	}
	if db.qsigs == nil {
		db.qsigs = make(map[*Query]querySigEntry, 32)
	}
	db.qsigs[q] = querySigEntry{seq: db.sigSeq, sig: sig}
	return sig
}

// cachedPlan is the memoizing front of the planner: every consumer of plans
// (Explain, Plan, QuerySeconds, Execute, WorkloadSeconds, PlanCost) funnels
// through it.
func (db *DB) cachedPlan(q *Query) *Plan {
	if db.plansOff {
		return db.plan(q)
	}
	key := planKey{eff: db.keyEff, sig: db.querySig(q), q: q}
	if p, ok := db.plans.lookup(key); ok {
		return p
	}
	p := db.plan(q)
	db.plans.store(key, p)
	return p
}
