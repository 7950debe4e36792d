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
//     interned to compact ids — see sigIntern), not a bare mutation counter:
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
// COW sharing mirrors the engine's snapshot model: Snapshot() freezes the
// parent's private write map into an immutable frozen layer and hands the
// child the frozen-layer chain plus a fresh write map. Workers on different
// snapshots then share the parent's read-mostly entries without any lock on
// the planning hot path; hit/miss/evict counters are shared atomics.

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

// planCacheCounters is shared by a DB and all its snapshots so telemetry
// covers replica work; atomics keep concurrent snapshot planning lock-free.
// gen is the freeze generation: bumped once per freeze, it is the clock that
// entry touch stamps are read against during compaction.
type planCacheCounters struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	gen       atomic.Uint32
}

const (
	// planCacheMaxEntries bounds the private write layer; on overflow the
	// layer is frozen (becoming the newest segment of the frozen chain), so
	// hot entries survive and eviction happens in oldest-segment granularity.
	planCacheMaxEntries = 16384
	// planCacheMaxLayers bounds the frozen-layer chain; overflow compacts the
	// oldest two layers, retaining recently-touched entries. Lookups scan at
	// most this many maps plus the compacted head, so total capacity is about
	// (planCacheMaxLayers+2) × planCacheMaxEntries entries.
	planCacheMaxLayers = 6
	// planCacheRecentGens is the compaction recency window: an oldest-layer
	// entry survives compaction only if it was hit within this many freeze
	// generations. One window ≈ one full trip through the chain.
	planCacheRecentGens = planCacheMaxLayers
	// planCacheCompactCap bounds the compacted head layer so repeated merges
	// cannot accrete unboundedly.
	planCacheCompactCap = 2 * planCacheMaxEntries
)

// planEntry wraps a cached *Plan with its recency stamp. touch holds the
// freeze generation of the entry's most recent hit (0 = never re-hit); it is
// an atomic because frozen layers are shared read-only across snapshots, and
// stamping recency is the one mutation the hot path performs on them.
type planEntry struct {
	p     *Plan
	touch atomic.Uint32
}

// planKey identifies one memoized planning. All three components are exact —
// there are no collisions, only identical plans.
type planKey struct {
	eff effects
	sig string
	q   *Query
}

// planCache is the per-DB memoization state. The frozen layers are immutable
// (modulo the atomic recency stamps) and may be shared with snapshots; the
// write map is private to one DB.
type planCache struct {
	counters *planCacheCounters
	frozen   []map[planKey]*planEntry
	write    map[planKey]*planEntry
	// ownFrom is the index of the first frozen layer born from THIS
	// instance's write map (by freeze) rather than inherited from the parent
	// at snapshot time. Layers at ownFrom and beyond hold plannings the
	// parent has never seen; absorb folds them back alongside the write map
	// so a multi-round evaluation loses nothing when its snapshot dies.
	ownFrom int
	off     bool
}

// lookup probes the private write layer, then the frozen chain newest-first,
// stamping the hit entry with the current freeze generation so compaction
// can tell hot entries from cold ones.
func (c *planCache) lookup(key planKey) (*Plan, bool) {
	if e, ok := c.write[key]; ok {
		e.touch.Store(c.counters.gen.Load())
		return e.p, true
	}
	for i := len(c.frozen) - 1; i >= 0; i-- {
		if e, ok := c.frozen[i][key]; ok {
			e.touch.Store(c.counters.gen.Load())
			return e.p, true
		}
	}
	return nil, false
}

// store inserts into the write layer. At the cap the layer is frozen into
// the segment chain (compacting at most the chain's oldest segments) rather
// than discarded — long single-instance searches like UDO's would otherwise
// lose their entire working set at every overflow.
func (c *planCache) store(key planKey, p *Plan) {
	if len(c.write) >= planCacheMaxEntries {
		c.freeze()
	}
	if c.write == nil {
		c.write = make(map[planKey]*planEntry, 64)
	}
	c.write[key] = &planEntry{p: p}
}

// freeze turns the write layer into an immutable frozen layer. Called before
// sharing the chain with a snapshot; consecutive snapshots with no writes in
// between share the same chain without growing it.
func (c *planCache) freeze() {
	if len(c.write) == 0 {
		return
	}
	c.frozen = append(c.frozen, c.write)
	c.write = nil
	c.counters.gen.Add(1)
	if len(c.frozen) <= planCacheMaxLayers {
		return
	}
	c.compactOldest()
}

// compactOldest merges the chain's two oldest layers into one, keeping every
// entry of the newer layer and only the recently-touched entries of the
// older one (bounded by planCacheCompactCap). A daemon churning through
// cold tenants thus sheds their never-re-hit plans while the hot cross-job
// working set keeps riding the chain's head, and eviction never hits
// entries that are actually being used.
func (c *planCache) compactOldest() {
	gen := c.counters.gen.Load()
	f0, f1 := c.frozen[0], c.frozen[1]
	merged := make(map[planKey]*planEntry, len(f1))
	for k, e := range f1 {
		merged[k] = e
	}
	dropped := 0
	for k, e := range f0 {
		if _, ok := merged[k]; ok {
			dropped++ // shadowed by the newer layer: unreachable already
			continue
		}
		if gen-e.touch.Load() <= planCacheRecentGens && len(merged) < planCacheCompactCap {
			merged[k] = e
		} else {
			dropped++
		}
	}
	if dropped > 0 {
		c.counters.evictions.Add(uint64(dropped))
	}
	c.frozen[1] = merged
	c.frozen = append(c.frozen[:0], c.frozen[1:]...)
	if c.ownFrom > 0 {
		// The merged head inherits ownership from the newer input: if either
		// merged layer was own, treating the result as own only means absorb
		// copies some already-known entries — identical values, so harmless.
		c.ownFrom--
	}
}

// snapshotCache returns the cache state for a new snapshot: the shared
// frozen chain (copied slice header, shared immutable maps), shared
// counters, and a nil (lazily allocated) private write map.
func (c *planCache) snapshotCache() planCache {
	if c.off {
		return planCache{off: true, counters: c.counters}
	}
	c.freeze()
	return planCache{
		counters: c.counters,
		frozen:   append([]map[planKey]*planEntry(nil), c.frozen...),
		ownFrom:  len(c.frozen), // everything so far is inherited
	}
}

// absorb folds a snapshot's private plannings back into this cache so later
// rounds benefit from plans computed on replicas (matching the sequential
// path's hit profile): the write map, plus any layers the snapshot froze out
// of its own writes along the way — a multi-round evaluation freezes its
// accumulated plans every time it re-snapshots, and without ownFrom
// tracking those layers would be lost with the snapshot, leaving every later
// job to replan them. Entries are content-addressed and plans deterministic,
// so merge order cannot change any value; a hard bound keeps a worker fleet
// from ballooning the parent's write layer.
func (c *planCache) absorb(o *planCache) {
	if c.off || o.off {
		return
	}
	c.absorbLayer(o.write)
	for _, l := range o.frozen[min(o.ownFrom, len(o.frozen)):] {
		c.absorbLayer(l)
	}
}

// absorbLayer copies one layer's entries into the write map under the
// absorb bound.
func (c *planCache) absorbLayer(l map[planKey]*planEntry) {
	if len(l) == 0 {
		return
	}
	if c.write == nil {
		c.write = make(map[planKey]*planEntry, len(l))
	}
	dropped := 0
	for k, e := range l {
		if len(c.write) >= 2*planCacheMaxEntries {
			dropped++
			continue
		}
		c.write[k] = e
	}
	if dropped > 0 {
		c.counters.evictions.Add(uint64(dropped))
	}
}

// SetPlanCache enables or disables plan memoization (enabled by default).
// Disabling drops every cached entry; simulated results are identical either
// way — the toggle exists for benchmarking the host-CPU effect.
func (db *DB) SetPlanCache(on bool) {
	if db.cache.off != on {
		return // no state change
	}
	db.cache.off = !on
	db.cache.frozen = nil
	db.cache.write = nil
}

// PlanCacheEnabled reports whether plan memoization is currently on.
func (db *DB) PlanCacheEnabled() bool { return !db.cache.off }

// PlanCacheStats returns the memoization counters accumulated by this
// instance and every snapshot taken from it.
func (db *DB) PlanCacheStats() PlanCacheStats {
	c := db.cache.counters
	if c == nil {
		return PlanCacheStats{}
	}
	return PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// querySigEntry memoizes one query's composed signature for one signature
// generation (sigSeq).
type querySigEntry struct {
	seq uint64
	sig string
}

// sigIntern maps per-table index-signature contents (the sorted index keys of
// one table, NUL-joined) to small stable ids. Interning keeps planKey.sig a
// few bytes long — cheap to hash on every lookup — while staying exact: equal
// ids mean byte-equal contents, never a lossy hash. The table is shared by a
// DB and all its snapshots (ids must agree for frozen-layer hits to work
// across replicas), hence the lock; it is only taken on rebuilds after an
// index mutation, never on the planning hot path.
type sigIntern struct {
	mu  sync.Mutex
	ids map[string]uint32
}

func (si *sigIntern) id(content string) uint32 {
	si.mu.Lock()
	id, ok := si.ids[content]
	if !ok {
		if si.ids == nil {
			si.ids = make(map[string]uint32, 16)
		}
		id = uint32(len(si.ids)) + 1
		si.ids[content] = id
	}
	si.mu.Unlock()
	return id
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
		db.groupSigs[g] = db.sigs.id(joinKeys(ks))
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
		db.groupSigs[g] = db.sigs.id(joinKeys(ks))
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
	if db.cache.off || db.cache.counters == nil {
		return db.plan(q)
	}
	key := planKey{eff: db.keyEff, sig: db.querySig(q), q: q}
	if p, ok := db.cache.lookup(key); ok {
		db.cache.counters.hits.Add(1)
		return p
	}
	db.cache.counters.misses.Add(1)
	p := db.plan(q)
	db.cache.store(key, p)
	return p
}
