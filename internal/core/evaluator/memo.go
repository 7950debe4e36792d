package evaluator

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lambdatune/internal/core/schedule"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
)

// Memo caches the evaluator's pure per-round recomputations across rounds —
// and, when owned by a shared Runtime, across whole tuning jobs. The selector
// re-evaluates every incomplete configuration each round, and a round's
// preamble — the query→index relevance map and the DP schedule — is a pure
// function of inputs that mostly repeat between rounds (and repeat wholesale
// between jobs tuning the same schema and workload). Like the engine's plan
// cache, the memo changes host CPU time only: a hit returns exactly what the
// recomputation would.
//
// Two layers live here:
//
//   - queryIndexMap memoizes per-(configuration, query) relevance slices.
//     Relevance reads nothing but the query's analysis and cfg.Indexes, both
//     immutable after construction, so entries are keyed by content — the
//     sorted index keys of the configuration plus the query name — and never
//     invalidate. Within a private (single-run) memo a hit additionally
//     requires pointer identity on the query, preserving pre-runtime
//     semantics; a shared memo trusts names because its namespace key (catalog
//     fingerprint + workload digest) pins each name to one SQL body.
//   - the schedule.Memo for DP orderings, which folds every backend value the
//     DP reads into its key (see schedule.Memo and OrderScoped).
//
// Lifecycle. Both layers evict by recency rather than clearing on overflow:
// the relevance layer drops its least-recently-probed configuration when the
// config bound is hit, and the schedule memo runs a sharded segmented LRU
// (see schedule.Memo).
//
// A Memo is safe for concurrent use and is shared across the parallel
// evaluator's workers. Construction is gated on the backend's plan-cache
// toggle (see New), so one switch governs every memoization layer.
type Memo struct {
	s *schedule.Memo
	// shared marks a Runtime-owned memo probed by many jobs (see
	// NewSharedMemo); ns/reg feed the per-namespace runtime_* counters.
	shared bool
	ns     string
	reg    *obs.Registry

	mu   sync.Mutex
	maps map[string]map[string]relevanceEntry // config content key → query name
	lru  []string                             // config content keys, least-recent first
	keys map[*engine.Config]string            // config → content key, guarded by mu

	lookups      atomic.Uint64
	hits         atomic.Uint64
	crossJobHits atomic.Uint64
	evictions    atomic.Uint64 // relevance-layer entries dropped
	// evictPublished tracks how much of the combined eviction total has been
	// flushed to the registry, so record can publish monotone deltas.
	evictPublished atomic.Uint64
	// segTick samples the segment-occupancy gauges: every segPublishEvery-th
	// record call refreshes them (see record).
	segTick atomic.Uint64
}

// segPublishEvery is the sampling period of the segment-occupancy gauges.
const segPublishEvery = 64

// relevanceEntry is one memoized relevance slice with the query pointer that
// computed it (the private-memo identity guard) and the owning job.
type relevanceEntry struct {
	q     *engine.Query
	owner string
	defs  []engine.IndexDef
}

// MemoStats is a point-in-time snapshot of the memo's hit accounting,
// aggregated over both layers (relevance and DP ordering).
type MemoStats struct {
	// Lookups counts probes: one per (query, configuration) relevance lookup
	// plus one per DP-ordering request.
	Lookups uint64
	// Hits counts probes served from the memo; Misses = Lookups - Hits.
	Hits uint64
	// CrossJobHits counts hits on entries computed by a different job — the
	// shared Runtime's reuse signal. Always 0 for a private memo.
	CrossJobHits uint64
	// Evictions counts entries dropped by the lifecycle across both layers.
	Evictions uint64
	// ScheduleHits / ScheduleProtectedHits expose the schedule memo's
	// segmented-LRU accounting; their ratio is the hit-retention signal.
	ScheduleHits          uint64
	ScheduleProtectedHits uint64
}

// Misses returns Lookups - Hits.
func (s MemoStats) Misses() uint64 { return s.Lookups - s.Hits }

// HitRetention is the fraction of schedule-memo hits served from the
// protected segment — how much of the hit traffic lands on entries the
// lifecycle chose to retain (0 when no hits).
func (s MemoStats) HitRetention() float64 {
	if s.ScheduleHits == 0 {
		return 0
	}
	return float64(s.ScheduleProtectedHits) / float64(s.ScheduleHits)
}

// memoMaxConfigs bounds the relevance-map layer (a selector run touches
// Samples+1 configurations, far below the bound; overflow drops the
// least-recently-probed configuration).
const memoMaxConfigs = 64

// memoMaxConfigKeys bounds the pointer→content-key cache; it is a pure
// cache, so overflow just clears it.
const memoMaxConfigKeys = 4 * memoMaxConfigs

// NewMemo returns an empty private evaluator memo (single-run semantics).
func NewMemo() *Memo {
	return &Memo{s: schedule.NewMemo()}
}

// NewSharedMemo returns a memo owned by a shared Runtime namespace: hits may
// cross job boundaries (callers pass their job ID as owner), and when reg is
// non-nil the memo publishes per-namespace counters
// runtime_memo_{hits,misses,cross_job_hits,evictions}_total_<ns> plus the
// runtime_memo_hit_retention_<ns> and segment-occupancy gauges
// (runtime_memo_{probation,protected}_entries_<ns>) and the aggregate
// runtime_memo_evictions_total. capacity bounds the schedule layer's entry
// count per namespace (<= 0 selects the default).
func NewSharedMemo(ns string, reg *obs.Registry, capacity int) *Memo {
	m := NewMemo()
	if capacity > 0 {
		m.s = schedule.NewMemoCapacity(capacity)
	}
	m.shared = true
	m.ns = ns
	m.reg = reg
	return m
}

// Stats returns the memo's current hit accounting (zero value for nil).
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	ss := m.s.Stats()
	return MemoStats{
		Lookups:               m.lookups.Load(),
		Hits:                  m.hits.Load(),
		CrossJobHits:          m.crossJobHits.Load(),
		Evictions:             m.evictions.Load() + uint64(ss.Evictions),
		ScheduleHits:          uint64(ss.Hits),
		ScheduleProtectedHits: uint64(ss.ProtectedHits),
	}
}

// record folds one batch of probe outcomes into the counters and, for a
// shared memo with a registry, the per-namespace runtime_* series (including
// eviction deltas accumulated by either layer since the last publish).
func (m *Memo) record(lookups, hits, cross uint64) {
	m.lookups.Add(lookups)
	m.hits.Add(hits)
	m.crossJobHits.Add(cross)
	if m.reg == nil {
		return
	}
	m.reg.Counter("runtime_memo_hits_total_" + m.ns).Add(float64(hits))
	m.reg.Counter("runtime_memo_misses_total_" + m.ns).Add(float64(lookups - hits))
	m.reg.Counter("runtime_memo_cross_job_hits_total_" + m.ns).Add(float64(cross))
	ss := m.s.Stats()
	if ss.Hits > 0 {
		m.reg.Gauge("runtime_memo_hit_retention_" + m.ns).Set(float64(ss.ProtectedHits) / float64(ss.Hits))
	}
	// Segment occupancy is a point-in-time gauge, so publishing a sampled
	// snapshot loses nothing — and sampling matters: Segments locks every
	// shard, and record sits on the per-probe hot path of all jobs at once.
	if m.segTick.Add(1)%segPublishEvery == 0 {
		seg := m.s.Segments()
		m.reg.Gauge("runtime_memo_probation_entries_" + m.ns).Set(float64(seg.Probation))
		m.reg.Gauge("runtime_memo_protected_entries_" + m.ns).Set(float64(seg.Protected))
	}
	total := m.evictions.Load() + uint64(ss.Evictions)
	for {
		prev := m.evictPublished.Load()
		if total <= prev {
			return
		}
		if m.evictPublished.CompareAndSwap(prev, total) {
			delta := float64(total - prev)
			m.reg.Counter("runtime_memo_evictions_total").Add(delta)
			m.reg.Counter("runtime_memo_evictions_total_" + m.ns).Add(delta)
			return
		}
	}
}

// configKey returns cfg's content key — its index keys, sorted and joined —
// caching the string per configuration pointer. Relevance reads nothing of a
// configuration but its index set, so configurations with equal index sets
// may share relevance entries. Caller holds m.mu.
func (m *Memo) configKey(cfg *engine.Config) string {
	if k, ok := m.keys[cfg]; ok {
		return k
	}
	ks := make([]string, len(cfg.Indexes))
	for i, ix := range cfg.Indexes {
		ks[i] = ix.Key()
	}
	sort.Strings(ks)
	k := strings.Join(ks, "\x00")
	if m.keys == nil {
		m.keys = make(map[*engine.Config]string, 8)
	} else if len(m.keys) >= memoMaxConfigKeys {
		// The pointer cache is only an accelerator; a long-lived daemon sees
		// unbounded distinct *Config pointers, so flush rather than leak.
		clear(m.keys)
	}
	m.keys[cfg] = k
	return k
}

// touchConfig moves key to the most-recent end of the relevance-layer LRU
// order. Caller holds m.mu.
func (m *Memo) touchConfig(key string) {
	n := len(m.lru)
	if n > 0 && m.lru[n-1] == key {
		return
	}
	for i := n - 1; i >= 0; i-- {
		if m.lru[i] == key {
			copy(m.lru[i:], m.lru[i+1:])
			m.lru[n-1] = key
			return
		}
	}
	m.lru = append(m.lru, key)
}

// evictConfigLocked applies the relevance-layer bound by dropping the
// least-recently-probed configuration. Caller holds m.mu.
func (m *Memo) evictConfigLocked() {
	for len(m.maps) >= memoMaxConfigs && len(m.lru) > 0 {
		victim := m.lru[0]
		m.lru = m.lru[1:]
		if per, ok := m.maps[victim]; ok {
			m.evictions.Add(uint64(len(per)))
			delete(m.maps, victim)
		}
	}
}

// queryIndexMap is the memoizing front of QueryIndexMap. A nil receiver
// degrades to the plain computation. owner names the probing job ("" for
// single-run use). Cached relevance slices are shared between rounds (and,
// on a shared memo, between jobs) and must be treated as read-only — every
// consumer (Evaluate's lazy creation loop, the scheduler) only iterates
// them. The bool reports a full memo hit (every query served from cache)
// for telemetry.
func (m *Memo) queryIndexMap(queries []*engine.Query, cfg *engine.Config, owner string) (map[*engine.Query][]engine.IndexDef, bool) {
	if m == nil {
		return QueryIndexMap(queries, cfg), false
	}
	out := make(map[*engine.Query][]engine.IndexDef, len(queries))
	var hits, cross uint64
	m.mu.Lock()
	key := m.configKey(cfg)
	per := m.maps[key]
	if per == nil {
		if m.maps == nil {
			m.maps = make(map[string]map[string]relevanceEntry, 8)
		} else if len(m.maps) >= memoMaxConfigs {
			m.evictConfigLocked()
		}
		per = make(map[string]relevanceEntry, len(queries))
		m.maps[key] = per
	}
	m.touchConfig(key)
	full := true
	var ci *configIndexes // prepared on the first miss
	for _, q := range queries {
		e, ok := per[q.Name]
		if ok && (e.q == q || m.shared) {
			hits++
			if m.shared && e.owner != owner {
				cross++
			}
			out[q] = e.defs
			continue
		}
		full = false
		if ci == nil {
			ci = newConfigIndexes(cfg)
		}
		defs := ci.relevant(q)
		per[q.Name] = relevanceEntry{q: q, owner: owner, defs: defs}
		out[q] = defs
	}
	m.mu.Unlock()
	m.record(uint64(len(queries)), hits, cross)
	return out, full
}

// order is the memoizing front of schedule.Order, threading the probing job
// through to the scoped schedule memo. A nil receiver degrades to the plain
// DP. The bool reports a memo hit.
func (m *Memo) order(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost schedule.IndexCost, seed int64, owner string) ([]*engine.Query, bool) {
	if m == nil {
		return schedule.Order(queries, indexMap, cost, seed), false
	}
	out, hit, cross := m.s.OrderScoped(owner, queries, indexMap, cost, seed)
	var h, c uint64
	if hit {
		h = 1
	}
	if cross {
		c = 1
	}
	m.record(1, h, c)
	return out, hit
}
