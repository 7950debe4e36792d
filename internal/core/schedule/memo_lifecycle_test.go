package schedule

import (
	"testing"
)

// TestMemoEvictThenRecompute is the eviction-correctness contract: after the
// lifecycle evicts an entry, a fresh probe of the same inputs must recompute
// a permutation identical to the originally memoized one — same names in the
// same positions, and every returned pointer drawn from the caller's own
// query slice (the namespace replay guarantee).
func TestMemoEvictThenRecompute(t *testing.T) {
	qsA, mapA := memoFixture(7)
	cost := costOf(3)
	m := NewMemoCapacity(6) // below the shard count: one deterministic shard

	orig, hit, _ := m.OrderScoped("job-a", qsA, mapA, cost, 1)
	if hit {
		t.Fatal("first probe cannot hit")
	}

	// Churn enough distinct keys through the memo to evict the original.
	for seed := int64(100); seed < 130; seed++ {
		m.OrderScoped("job-a", qsA, mapA, cost, seed)
	}
	if ev := m.Stats().Evictions; ev == 0 {
		t.Fatal("churn past capacity must evict")
	}

	// Re-probe from a different job with fresh query pointers, as a new run
	// in the same namespace would.
	qsB, mapB := memoFixture(7)
	got, hit, _ := m.OrderScoped("job-b", qsB, mapB, cost, 1)
	if hit {
		t.Fatal("probe after eviction must recompute, not hit")
	}
	if len(got) != len(orig) {
		t.Fatalf("recomputed %d queries, originally %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].Name != orig[i].Name {
			t.Fatalf("pos %d: recomputed %s, originally memoized %s", i, got[i].Name, orig[i].Name)
		}
		// Pointer verification: every result must come from the caller's
		// slice, never from the evicted entry's captured pointers.
		found := false
		for _, b := range qsB {
			if got[i] == b {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("pos %d: result pointer not from the probing caller's slice", i)
		}
	}

	// And the recomputed entry must itself be re-memoized and replayable.
	again, hit, cross := m.OrderScoped("job-c", qsB, mapB, cost, 1)
	if !hit || !cross {
		t.Fatalf("re-memoized entry: hit=%v cross=%v, want true/true", hit, cross)
	}
	for i := range again {
		if again[i] != got[i] {
			t.Fatalf("pos %d: replay diverged from recomputation", i)
		}
	}
}

// TestMemoSegmentedLRURetention asserts the point of the segmented LRU: an
// entry that proved itself by a re-hit is promoted to the protected segment
// and survives a churn of cold one-shot entries that exceeds capacity many
// times over.
func TestMemoSegmentedLRURetention(t *testing.T) {
	qs, im := memoFixture(7)
	cost := costOf(3)
	const hotSeed = 1

	m := NewMemoCapacity(6)
	m.OrderScoped("hot", qs, im, cost, hotSeed)
	if _, hit, _ := m.OrderScoped("hot", qs, im, cost, hotSeed); !hit {
		t.Fatal("second probe of the hot key must hit")
	}
	for seed := int64(100); seed < 150; seed++ {
		m.OrderScoped("cold", qs, im, cost, seed)
	}
	if _, hit, _ := m.OrderScoped("hot", qs, im, cost, hotSeed); !hit {
		t.Fatal("protected hot entry evicted by cold churn; segmented LRU broken")
	}
	st := m.Stats()
	if st.ProtectedHits == 0 {
		t.Fatal("no protected hits recorded despite promotion")
	}
	if st.Evictions == 0 {
		t.Fatal("cold churn past capacity must evict")
	}
}

// TestMemoShardedEviction runs the default sharded configuration past its
// bound and asserts the total entry count stays bounded while results stay
// correct (every probe still returns the plain DP's permutation).
func TestMemoShardedEviction(t *testing.T) {
	qs, im := memoFixture(5)
	cost := costOf(3)
	m := NewMemoCapacity(16) // 8 shards, 2 entries each
	for seed := int64(0); seed < 200; seed++ {
		got := m.Order(qs, im, cost, seed)
		want := Order(qs, im, cost, seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d pos %d: memo diverged from plain DP", seed, i)
			}
		}
	}
	if ev := m.Stats().Evictions; ev == 0 {
		t.Fatal("200 distinct keys through 16 slots must evict")
	}
	total := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		if len(s.entries) > s.cap {
			s.mu.Unlock()
			t.Fatalf("shard %d holds %d entries, cap %d", i, len(s.entries), s.cap)
		}
		if s.probation.n+s.protected.n != len(s.entries) {
			s.mu.Unlock()
			t.Fatalf("shard %d: list lengths %d+%d disagree with map size %d",
				i, s.probation.n, s.protected.n, len(s.entries))
		}
		total += len(s.entries)
		s.mu.Unlock()
	}
	if total > 16 {
		t.Fatalf("memo holds %d entries, bound 16", total)
	}
}

// TestMemoProtectedDemotion fills the protected segment beyond its bound and
// asserts demotion keeps the segment capped instead of growing unbounded.
func TestMemoProtectedDemotion(t *testing.T) {
	qs, im := memoFixture(6)
	cost := costOf(3)
	m := NewMemoCapacity(5) // one shard: cap 5, protected cap 4
	for seed := int64(0); seed < 5; seed++ {
		m.OrderScoped("a", qs, im, cost, seed)
		m.OrderScoped("a", qs, im, cost, seed) // re-hit: promote every entry
	}
	s := &m.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.protected.n > s.protCap {
		t.Fatalf("protected segment %d exceeds bound %d", s.protected.n, s.protCap)
	}
	if s.probation.n+s.protected.n != len(s.entries) {
		t.Fatalf("list lengths %d+%d disagree with map size %d",
			s.probation.n, s.protected.n, len(s.entries))
	}
}
