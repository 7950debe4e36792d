package evaluator

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"sync"

	"lambdatune/internal/core/schedule"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
)

// Memo caches the evaluator's pure per-round recomputations across rounds —
// and, when owned by a shared Runtime namespace, across whole tuning jobs.
// The selector re-evaluates every incomplete configuration each round, and a
// round's preamble — the query→index relevance map and the DP schedule — is
// a pure function of inputs that mostly repeat between rounds (and repeat
// wholesale between jobs tuning the same schema and workload). Like the
// engine's plan cache, the memo changes host CPU time only: a hit returns
// exactly what the recomputation would.
//
// Two layers live here, under one mutex:
//
//   - Relevance: configuration content key (its sorted index keys) → query
//     name → relevant indexes. Relevance reads nothing but the query's
//     analysis and cfg.Indexes, both immutable after construction, so entries
//     never invalidate. The layer holds memoMaxConfigs configurations and
//     drops the least recently probed one on overflow.
//   - Orders: the schedule.Order permutation per key. The key captures
//     everything Order consumes: the clustering seed, the query names in
//     sequence, each query's relevant index keys, and every distinct index's
//     creation cost (the only backend state the DP reads) as raw float bits.
//     The layer is a segmented LRU of capacity entries: new entries enter
//     probation, a re-hit promotes an entry to the protected segment (at most
//     80% of capacity, its coldest entry demoted back when full), and
//     overflow evicts from the probation tail first. A daemon churning
//     through cold one-shot jobs thus evicts their never-re-hit entries while
//     hot cross-job entries stay resident.
//
// Hits are served by query name and replayed onto the caller's own query
// pointers. That is sound because a memo serves one workload: a Runtime
// namespace is keyed by (flavor, catalog fingerprint, workload digest), a
// run-private memo lives inside one run, and query names are unique within a
// workload. Every entry records the job that computed it (its owner), so a
// hit on another job's entry counts as a cross-job hit; and concurrent first
// computations of one order coalesce — the first caller runs the DP, the
// rest wait for its entry.
//
// A Memo is safe for concurrent use and is shared across the parallel
// evaluator's workers. Construction is gated on the backend's plan-cache
// toggle (see New), so one switch governs every memoization layer.
type Memo struct {
	capacity int // order-layer entry bound
	protCap  int // protected-segment bound

	mu sync.Mutex

	maps map[string]map[string]relevanceEntry // config content key → query name
	lru  []string                             // config content keys, least recent first

	orders    map[string]*orderEntry
	probation lruList
	protected lruList
	inflight  map[string]chan struct{} // order keys whose first computation runs

	lookups, hits, crossJobHits, evictions uint64
	scheduleHits, scheduleProtectedHits    uint64

	// Registry handles, resolved once in NewMemo; nil (no-op) without one.
	hitsTotal, missesTotal, crossTotal   *obs.Counter
	evictTotal, evictTotalNS             *obs.Counter
	retention, probationGauge, protGauge *obs.Gauge
}

// relevanceEntry is one memoized relevance slice and the job that computed
// it.
type relevanceEntry struct {
	owner string
	defs  []engine.IndexDef
}

// orderEntry is one memoized permutation, threaded onto its segment's
// recency list.
type orderEntry struct {
	key   string
	in    []*engine.Query // the computing caller's queries, for the name check
	perm  []int           // perm[i] indexes into the probing caller's queries
	owner string

	protected  bool
	prev, next *orderEntry
}

// lruList is an intrusive doubly-linked recency list: front = most recent.
type lruList struct {
	front, back *orderEntry
	n           int
}

func (l *lruList) pushFront(e *orderEntry) {
	e.prev = nil
	e.next = l.front
	if l.front != nil {
		l.front.prev = e
	}
	l.front = e
	if l.back == nil {
		l.back = e
	}
	l.n++
}

func (l *lruList) remove(e *orderEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

// MemoStats is a point-in-time snapshot of the memo's hit accounting,
// aggregated over both layers (relevance and DP ordering).
type MemoStats struct {
	// Lookups counts probes: one per (query, configuration) relevance lookup
	// plus one per DP-ordering request.
	Lookups uint64
	// Hits counts probes served from the memo; the rest missed.
	Hits uint64
	// CrossJobHits counts hits on entries computed by a different job — the
	// shared Runtime's reuse signal. Always 0 for a run-private memo.
	CrossJobHits uint64
	// Evictions counts entries dropped by the lifecycle across both layers:
	// each query's relevance entry of a dropped configuration, and each
	// order the segmented LRU evicted.
	Evictions uint64
	// ScheduleHits / ScheduleProtectedHits expose the order layer's
	// segmented-LRU accounting; their ratio is the hit-retention signal.
	ScheduleHits          uint64
	ScheduleProtectedHits uint64
}

// memoMaxConfigs bounds the relevance layer (a selector run touches
// Samples+1 configurations, far below the bound).
const memoMaxConfigs = 64

// memoMaxEntries is the default order-layer bound: one selector run's
// working set is orders of magnitude smaller, and a daemon's cross-job hot
// set is what the segmented LRU protects within it.
const memoMaxEntries = 4096

// NewMemo returns an empty memo whose order layer holds capacity entries
// (<= 0 selects the default, 4096). With a non-nil reg it publishes the
// per-namespace series runtime_memo_{hits,misses,cross_job_hits,evictions}_total_<ns>,
// runtime_memo_hit_retention_<ns> and
// runtime_memo_{probation,protected}_entries_<ns>, plus the aggregate
// runtime_memo_evictions_total. A Runtime builds one per namespace;
// evaluator.New builds a run-private one with NewMemo("", nil, 0).
func NewMemo(ns string, reg *obs.Registry, capacity int) *Memo {
	if capacity <= 0 {
		capacity = memoMaxEntries
	}
	return &Memo{
		capacity:       capacity,
		protCap:        max(capacity*4/5, 1),
		hitsTotal:      reg.Counter("runtime_memo_hits_total_" + ns),
		missesTotal:    reg.Counter("runtime_memo_misses_total_" + ns),
		crossTotal:     reg.Counter("runtime_memo_cross_job_hits_total_" + ns),
		evictTotal:     reg.Counter("runtime_memo_evictions_total"),
		evictTotalNS:   reg.Counter("runtime_memo_evictions_total_" + ns),
		retention:      reg.Gauge("runtime_memo_hit_retention_" + ns),
		probationGauge: reg.Gauge("runtime_memo_probation_entries_" + ns),
		protGauge:      reg.Gauge("runtime_memo_protected_entries_" + ns),
	}
}

// Stats returns the memo's current hit accounting (zero value for nil).
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{
		Lookups:               m.lookups,
		Hits:                  m.hits,
		CrossJobHits:          m.crossJobHits,
		Evictions:             m.evictions,
		ScheduleHits:          m.scheduleHits,
		ScheduleProtectedHits: m.scheduleProtectedHits,
	}
}

// count folds one probe batch into the counters and the per-namespace
// series. Caller holds m.mu.
func (m *Memo) count(lookups, hits, cross uint64) {
	m.lookups += lookups
	m.hits += hits
	m.crossJobHits += cross
	m.hitsTotal.Add(float64(hits))
	m.missesTotal.Add(float64(lookups - hits))
	m.crossTotal.Add(float64(cross))
}

// evicted counts n dropped entries. Caller holds m.mu.
func (m *Memo) evicted(n int) {
	m.evictions += uint64(n)
	m.evictTotal.Add(float64(n))
	m.evictTotalNS.Add(float64(n))
}

// configKey returns cfg's content key: its index keys, sorted and joined.
// Relevance reads nothing of a configuration but its index set, so
// configurations with equal index sets share relevance entries.
func configKey(cfg *engine.Config) string {
	ks := make([]string, len(cfg.Indexes))
	for i, ix := range cfg.Indexes {
		ks[i] = ix.Key()
	}
	sort.Strings(ks)
	return strings.Join(ks, "\x00")
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

// queryIndexMap is the memoizing front of QueryIndexMap. A nil receiver
// degrades to the plain computation. owner names the probing job. Cached
// relevance slices are shared between rounds (and between jobs of one
// namespace) and must be treated as read-only — every consumer (Evaluate's
// lazy creation loop, the scheduler) only iterates them. The bool reports a
// full memo hit (every query served from cache) for telemetry.
func (m *Memo) queryIndexMap(queries []*engine.Query, cfg *engine.Config, owner string) (map[*engine.Query][]engine.IndexDef, bool) {
	if m == nil {
		return QueryIndexMap(queries, cfg), false
	}
	key := configKey(cfg)
	out := make(map[*engine.Query][]engine.IndexDef, len(queries))
	var hits, cross uint64
	var ci *configIndexes // prepared on the first miss
	m.mu.Lock()
	defer m.mu.Unlock()
	per := m.maps[key]
	if per == nil {
		if m.maps == nil {
			m.maps = make(map[string]map[string]relevanceEntry, 8)
		}
		for len(m.maps) >= memoMaxConfigs {
			victim := m.lru[0]
			m.lru = m.lru[1:]
			m.evicted(len(m.maps[victim]))
			delete(m.maps, victim)
		}
		per = make(map[string]relevanceEntry, len(queries))
		m.maps[key] = per
	}
	m.touchConfig(key)
	for _, q := range queries {
		if e, ok := per[q.Name]; ok {
			hits++
			if e.owner != owner {
				cross++
			}
			out[q] = e.defs
			continue
		}
		if ci == nil {
			ci = newConfigIndexes(cfg)
		}
		defs := ci.relevant(q)
		per[q.Name] = relevanceEntry{owner: owner, defs: defs}
		out[q] = defs
	}
	m.count(uint64(len(queries)), hits, cross)
	return out, hits == uint64(len(queries))
}

// orderKeyBuf is pooled scratch for the order key: the key bytes plus the
// first-sight index set used for cost folding. Reusing both removes the
// dominant allocation on the hit path — a warm probe allocates only the
// replayed permutation.
type orderKeyBuf struct {
	b    []byte
	seen []engine.IndexDef
}

var orderKeyPool = sync.Pool{New: func() any { return new(orderKeyBuf) }}

// build writes the order key of (queries, indexMap, cost, seed) into kb and
// returns it. Each distinct index's creation cost is folded in at its first
// sight, so the key stays a deterministic function of the inputs.
func (kb *orderKeyBuf) build(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost schedule.IndexCost, seed int64) []byte {
	k, seen := kb.b[:0], kb.seen[:0]
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	k = append(k, buf[:]...)
	for _, q := range queries {
		k = append(k, q.Name...)
		k = append(k, 1)
		for _, d := range indexMap[q] {
			k = append(k, d.Table...)
			k = append(k, '(')
			k = append(k, d.Columns...)
			k = append(k, ')')
			if !seenIndex(seen, d) {
				seen = append(seen, d)
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(cost(d)))
				k = append(k, buf[:]...)
			}
			k = append(k, 2)
		}
		k = append(k, 3)
	}
	kb.b, kb.seen = k, seen
	return k
}

// seenIndex reports whether seen already holds d's key. Name plays no part
// in IndexDef.Key, so the comparison mirrors it: Table and Columns only. A
// linear scan replaces the per-call map — index lists are short and a slice
// probe allocates nothing.
func seenIndex(seen []engine.IndexDef, d engine.IndexDef) bool {
	for _, s := range seen {
		if s.Table == d.Table && s.Columns == d.Columns {
			return true
		}
	}
	return false
}

// order is the memoizing front of schedule.Order. A nil receiver degrades
// to the plain DP. owner names the probing job. The bool reports a memo hit.
//
// The key is built into a pooled buffer outside the lock (the cost callback
// reads the backend), and probes index the map with string(k), which
// allocates nothing; the key string is materialized only on a miss, where
// the entry retains it. A hit must also pass a positional name check:
// names are joined with separator bytes, so two inputs can encode to the
// same key, and only their names tell them apart.
func (m *Memo) order(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost schedule.IndexCost, seed int64, owner string) ([]*engine.Query, bool) {
	if m == nil {
		return schedule.Order(queries, indexMap, cost, seed), false
	}
	kb := orderKeyPool.Get().(*orderKeyBuf)
	k := kb.build(queries, indexMap, cost, seed)
	m.mu.Lock()
	for {
		if e := m.orders[string(k)]; e != nil && sameNames(e.in, queries) {
			out := make([]*engine.Query, len(e.perm))
			for i, p := range e.perm {
				out[i] = queries[p]
			}
			var cross uint64
			if e.owner != owner {
				cross = 1
			}
			m.count(1, 1, cross)
			m.touch(e)
			m.mu.Unlock()
			orderKeyPool.Put(kb)
			return out, true
		}
		ch := m.inflight[string(k)]
		if ch == nil {
			break
		}
		m.mu.Unlock()
		<-ch // the computing caller has stored its entry; probe again
		m.mu.Lock()
	}
	key := string(k)
	orderKeyPool.Put(kb)
	if m.inflight == nil {
		m.inflight = make(map[string]chan struct{})
	}
	ch := make(chan struct{})
	m.inflight[key] = ch
	m.count(1, 0, 0)
	m.mu.Unlock()

	// The deferred release wakes the waiters even if the DP panics (the
	// daemon recovers job panics); it stores the entry only if one exists.
	var perm []int
	defer func() {
		m.mu.Lock()
		if perm != nil {
			m.store(key, queries, perm, owner)
		}
		delete(m.inflight, key)
		m.mu.Unlock()
		close(ch)
	}()
	out := schedule.Order(queries, indexMap, cost, seed)
	pos := make(map[*engine.Query]int, len(queries))
	for i, q := range queries {
		pos[q] = i
	}
	perm = make([]int, len(out))
	for i, q := range out {
		perm[i] = pos[q]
	}
	return out, false
}

// touch records a hit on e and promotes it: probation entries move to the
// protected segment (demoting that segment's coldest entry when full);
// protected entries move to their segment's front. Caller holds m.mu.
func (m *Memo) touch(e *orderEntry) {
	m.scheduleHits++
	switch {
	case e.protected:
		m.scheduleProtectedHits++
		if m.protected.front != e {
			m.protected.remove(e)
			m.protected.pushFront(e)
		}
	default:
		m.probation.remove(e)
		e.protected = true
		m.protected.pushFront(e)
		if m.protected.n > m.protCap {
			demoted := m.protected.back
			m.protected.remove(demoted)
			demoted.protected = false
			m.probation.pushFront(demoted)
		}
	}
	m.retention.Set(float64(m.scheduleProtectedHits) / float64(m.scheduleHits))
	m.publishSegments()
}

// store inserts (or replaces) key's entry and applies the bound: eviction
// from the probation tail, falling back to the protected tail when
// probation is empty. Caller holds m.mu.
func (m *Memo) store(key string, queries []*engine.Query, perm []int, owner string) {
	if m.orders == nil {
		m.orders = make(map[string]*orderEntry, 64)
	}
	if old := m.orders[key]; old != nil {
		m.segment(old).remove(old)
	}
	e := &orderEntry{key: key, in: append([]*engine.Query(nil), queries...), perm: perm, owner: owner}
	m.orders[key] = e
	m.probation.pushFront(e)
	for len(m.orders) > m.capacity {
		victim := m.probation.back
		if victim == nil {
			victim = m.protected.back
		}
		m.segment(victim).remove(victim)
		delete(m.orders, victim.key)
		m.evicted(1)
	}
	m.publishSegments()
}

// segment returns the recency list e is threaded on.
func (m *Memo) segment(e *orderEntry) *lruList {
	if e.protected {
		return &m.protected
	}
	return &m.probation
}

// publishSegments sets the segment-occupancy gauges. Caller holds m.mu.
func (m *Memo) publishSegments() {
	m.probationGauge.Set(float64(m.probation.n))
	m.protGauge.Set(float64(m.protected.n))
}

// sameNames reports positional name equality between a stored entry's
// queries and a probe's.
func sameNames(a, b []*engine.Query) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}
