package schedule

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"lambdatune/internal/engine"
)

// Memo caches Order results across evaluation rounds. The selector
// re-schedules the same (remaining queries, configuration) inputs round
// after round — every round in which a configuration completes nothing
// repeats the previous round's schedule verbatim — so memoizing Order is the
// scheduling counterpart of the engine's plan cache. A hit costs a key build
// and a probe; a miss runs the clustering and the DP, which on JOB take a
// few tenths of a millisecond (BenchmarkOrder).
//
// The key captures everything Order consumes: the query sequence, each
// query's relevant index keys, every distinct index's creation cost (the
// only backend state the DP reads, folded in as raw float bits), and the
// clustering seed. Query identity is verified by pointer comparison on hit,
// so equal names can never alias. Like the plan cache, the memo changes host
// CPU time only — a hit returns the exact permutation the DP would compute.
//
// Lifecycle. The memo is bounded by a sharded segmented LRU: keys hash onto
// independent shards (one lock each, so concurrent jobs don't serialize on
// one mutex), and each shard keeps a probation and a protected segment. New
// entries enter probation; a re-hit entry is promoted to protected,
// displacing the protected segment's own least-recent entry back to
// probation when the segment is full. Overflow evicts from the probation tail first, so a
// long-lived daemon churning through cold one-shot tenants evicts their
// never-re-hit entries while hot cross-job entries stay resident.
//
// A Memo is safe for concurrent use: the parallel evaluator's workers
// schedule rounds on separate snapshots but share one memo. A runtime-owned
// memo is additionally shared across whole jobs via OrderScoped, which
// attributes entries to their creating job and coalesces concurrent
// first computations of the same key.
type Memo struct {
	shards   []memoShard
	capacity int // total entry bound across shards

	hits          atomic.Int64
	protectedHits atomic.Int64
	evictions     atomic.Int64

	// inflight coalesces concurrent scoped first computations: the first
	// caller of a missing key computes, later callers wait for its entry
	// instead of repeating the DP. Private (unscoped) callers never wait —
	// they recompute exactly as the pre-runtime memo did.
	inflightMu sync.Mutex
	inflight   map[string]chan struct{}
}

// memoShard is one independently locked slice of the memo's key space.
type memoShard struct {
	mu        sync.Mutex
	entries   map[string]*memoEntry
	probation lruList
	protected lruList
	cap       int // entry bound for this shard
	protCap   int // protected-segment bound (a fraction of cap)
}

// memoEntry is one memoized permutation, threaded onto its segment's
// recency list.
type memoEntry struct {
	key   string
	in    []*engine.Query
	perm  []int // perm[i] indexes into in
	owner string

	protected  bool
	prev, next *memoEntry
}

// lruList is an intrusive doubly-linked recency list: front = most recent.
type lruList struct {
	front, back *memoEntry
	n           int
}

func (l *lruList) pushFront(e *memoEntry) {
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

func (l *lruList) remove(e *memoEntry) {
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

// memoMaxEntries is the default total entry bound (the working set of one
// selector run is orders of magnitude smaller; a daemon's cross-job hot set
// is what the segmented LRU protects within it).
const memoMaxEntries = 4096

// memoShardCount is the number of lock shards (power of two for masking).
const memoShardCount = 8

// NewMemo returns an empty Order memo with the default segmented-LRU
// lifecycle.
func NewMemo() *Memo { return NewMemoCapacity(memoMaxEntries) }

// NewMemoCapacity returns a memo bounded to capacity entries.
func NewMemoCapacity(capacity int) *Memo {
	if capacity < 1 {
		capacity = 1
	}
	shards := memoShardCount
	if capacity < shards {
		shards = 1
	}
	m := &Memo{
		shards:   make([]memoShard, shards),
		capacity: capacity,
	}
	per := capacity / shards
	if per < 1 {
		per = 1
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.cap = per
		// Protected holds at most ~80% of a shard, so promotion always
		// leaves probation room for new entries to prove themselves.
		s.protCap = per * 4 / 5
		if s.protCap < 1 {
			s.protCap = 1
		}
	}
	return m
}

// MemoStats is a point-in-time snapshot of the memo's lifecycle accounting.
type MemoStats struct {
	// Hits counts probes served from the memo.
	Hits int64
	// ProtectedHits counts hits on protected-segment entries — entries that
	// earned residency by re-use. ProtectedHits/Hits is the hit-retention
	// signal exported by the runtime.
	ProtectedHits int64
	// Evictions counts entries the segmented LRU evicted.
	Evictions int64
}

// SegmentStats is a point-in-time snapshot of segment occupancy across every
// shard: how many entries are still proving themselves (probation) versus
// earned residency through re-use (protected).
type SegmentStats struct {
	Probation int
	Protected int
}

// Segments sums probation/protected occupancy over the shards (zero value
// for nil). Each shard is locked briefly in turn, so the snapshot is
// per-shard consistent rather than globally atomic — fine for telemetry,
// which is its only consumer.
func (m *Memo) Segments() SegmentStats {
	var out SegmentStats
	if m == nil {
		return out
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		out.Probation += s.probation.n
		out.Protected += s.protected.n
		s.mu.Unlock()
	}
	return out
}

// Stats returns the memo's lifecycle accounting (zero value for nil).
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	return MemoStats{
		Hits:          m.hits.Load(),
		ProtectedHits: m.protectedHits.Load(),
		Evictions:     m.evictions.Load(),
	}
}

// shardIndex maps a key onto its lock shard. Generic over the key's
// representation so the probe path can hash the pooled []byte key without
// first converting it to a string; the FNV-1a loop is written out because
// hash/fnv's Write would force the key bytes onto the heap.
func shardIndex[K ~string | ~[]byte](m *Memo, key K) *memoShard {
	if len(m.shards) == 1 {
		return &m.shards[0]
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * prime32
	}
	return &m.shards[h%uint32(len(m.shards))]
}

// orderKeyBuf is pooled scratch for OrderScoped's key construction: the key
// bytes plus the first-sight index set used for cost folding. Reusing both
// removes the dominant allocation on the memo's hit path — a warm probe
// allocates only the replayed permutation.
type orderKeyBuf struct {
	b    []byte
	seen []engine.IndexDef
}

var orderKeyPool = sync.Pool{New: func() any { return new(orderKeyBuf) }}

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

// Order is the memoizing front of the package-level Order function. A nil
// receiver degrades to the plain DP, so callers can thread an optional memo
// without branching.
func (m *Memo) Order(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost IndexCost, seed int64) []*engine.Query {
	out, _ := m.OrderWithHit(queries, indexMap, cost, seed)
	return out
}

// OrderWithHit is Order plus a hit report for telemetry: the bool is true
// when the permutation came from the memo rather than a fresh DP run.
func (m *Memo) OrderWithHit(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost IndexCost, seed int64) ([]*engine.Query, bool) {
	out, hit, _ := m.OrderScoped("", queries, indexMap, cost, seed)
	return out, hit
}

// OrderScoped is OrderWithHit for runtime-shared memos: owner names the job
// probing the memo ("" = private, pre-runtime semantics). The extra bool
// reports a cross-job hit — the entry was computed by a different owner.
//
// Two behaviors are gated on owner != "" because only the runtime can
// justify them:
//
//   - Cross-run reuse. Distinct runs hold distinct *engine.Query pointers
//     for the same workload, so the pointer-identity check that guards
//     private memos would never fire across jobs. A runtime memo lives in a
//     namespace keyed by (catalog fingerprint, workload digest), which
//     proves that positionally equal query names carry byte-equal SQL —
//     so on a key match with equal names the stored permutation is replayed
//     onto the caller's own query pointers.
//
//   - Coalescing. Concurrent jobs miss the same key together at startup;
//     the first computes, the rest wait and then hit. This converts the
//     thundering herd of N similar jobs into one DP run per key.
func (m *Memo) OrderScoped(owner string, queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost IndexCost, seed int64) ([]*engine.Query, bool, bool) {
	if m == nil {
		return Order(queries, indexMap, cost, seed), false, false
	}
	// The key is built into a pooled buffer; probe and the inflight lookup
	// use the map[string(b)] no-allocation index form, so a hit — the common
	// case for a warm daemon — materializes no key string at all.
	kb := orderKeyPool.Get().(*orderKeyBuf)
	k := kb.b[:0]
	seen := kb.seen[:0]
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
				// Fold the creation cost in at first sight so the key stays
				// a deterministic function of the inputs.
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(cost(d)))
				k = append(k, buf[:]...)
			}
			k = append(k, 2)
		}
		k = append(k, 3)
	}
	kb.b, kb.seen = k, seen

	for {
		if out, hit, cross, ok := m.probe(k, owner, queries); ok {
			orderKeyPool.Put(kb)
			return out, hit, cross
		}
		if owner == "" {
			break
		}
		m.inflightMu.Lock()
		if ch, ok := m.inflight[string(k)]; ok {
			m.inflightMu.Unlock()
			<-ch
			continue // the computing job stored the entry; re-probe
		}
		if m.inflight == nil {
			m.inflight = make(map[string]chan struct{})
		}
		ikey := string(k)
		ch := make(chan struct{})
		m.inflight[ikey] = ch
		m.inflightMu.Unlock()
		defer func() {
			m.inflightMu.Lock()
			delete(m.inflight, ikey)
			m.inflightMu.Unlock()
			close(ch)
		}()
		break
	}

	// Compute path: the key string is materialized exactly here, where it is
	// about to be retained by store.
	key := string(k)
	orderKeyPool.Put(kb)

	out := Order(queries, indexMap, cost, seed)
	pos := make(map[*engine.Query]int, len(queries))
	for i, q := range queries {
		pos[q] = i
	}
	perm := make([]int, len(out))
	for i, q := range out {
		perm[i] = pos[q]
	}
	in := append([]*engine.Query(nil), queries...)
	m.store(key, in, perm, owner)
	return out, false, false
}

// probe looks key up, replays a compatible entry, and reports ok=false when
// the caller must (re)compute — either a miss or an entry whose query slice
// is incompatible with the caller's (private memo with alien pointers).
func (m *Memo) probe(key []byte, owner string, queries []*engine.Query) ([]*engine.Query, bool, bool, bool) {
	s := shardIndex(m, key)
	s.mu.Lock()
	e, ok := s.entries[string(key)]
	if !ok {
		s.mu.Unlock()
		return nil, false, false, false
	}
	switch {
	case sameQueries(e.in, queries):
		out := make([]*engine.Query, len(e.perm))
		for i, idx := range e.perm {
			out[i] = e.in[idx]
		}
		s.touch(e, m)
		s.mu.Unlock()
		return out, true, owner != "" && e.owner != owner, true
	case owner != "" && sameNames(e.in, queries):
		out := make([]*engine.Query, len(e.perm))
		for i, idx := range e.perm {
			out[i] = queries[idx]
		}
		cross := e.owner != owner
		s.touch(e, m)
		s.mu.Unlock()
		return out, true, cross, true
	}
	s.mu.Unlock()
	return nil, false, false, false
}

// touch records a hit on e and promotes it: probation entries move to the
// protected segment (demoting that segment's coldest entry when full);
// protected entries move to their segment's front. Caller holds s.mu.
func (s *memoShard) touch(e *memoEntry, m *Memo) {
	m.hits.Add(1)
	if e.protected {
		m.protectedHits.Add(1)
		if s.protected.front != e {
			s.protected.remove(e)
			s.protected.pushFront(e)
		}
		return
	}
	s.probation.remove(e)
	e.protected = true
	s.protected.pushFront(e)
	if s.protected.n > s.protCap {
		demoted := s.protected.back
		s.protected.remove(demoted)
		demoted.protected = false
		s.probation.pushFront(demoted)
	}
}

// store inserts (or replaces) key's entry and applies the lifecycle bound:
// segmented-LRU eviction from the probation tail, falling back to the
// protected tail when probation is empty.
func (m *Memo) store(key string, in []*engine.Query, perm []int, owner string) {
	s := shardIndex(m, key)
	s.mu.Lock()
	if s.entries == nil {
		s.entries = make(map[string]*memoEntry, 64)
	}
	if old, ok := s.entries[key]; ok {
		if old.protected {
			s.protected.remove(old)
		} else {
			s.probation.remove(old)
		}
	}
	e := &memoEntry{key: key, in: in, perm: perm, owner: owner}
	s.entries[key] = e
	s.probation.pushFront(e)
	for len(s.entries) > s.cap {
		victim := s.probation.back
		if victim == nil {
			victim = s.protected.back
			s.protected.remove(victim)
		} else {
			s.probation.remove(victim)
		}
		delete(s.entries, victim.key)
		m.evictions.Add(1)
	}
	s.mu.Unlock()
}

func sameQueries(a, b []*engine.Query) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameNames reports positional name equality — the cross-run identity test.
// It is sound only inside a runtime namespace, where the workload digest
// already pins each name to one SQL body.
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
