package evaluator

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lambdatune/internal/core/schedule"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
)

// TestMemoQueryIndexMapMatchesPlain asserts the memoized relevance map is
// exactly QueryIndexMap's output, across repeats, query subsets, and
// multiple configurations.
func TestMemoQueryIndexMapMatchesPlain(t *testing.T) {
	queries := make([]*engine.Query, 6)
	for i := range queries {
		queries[i] = mustQuery(t, fmt.Sprintf("q%d", i),
			fmt.Sprintf("SELECT * FROM t%d WHERE c%d > 5", i%3, i%2))
	}
	cfgA := &engine.Config{ID: "a", Indexes: []engine.IndexDef{
		engine.NewIndexDef("t0", "c0"),
		engine.NewIndexDef("t1", "c1"),
		engine.NewIndexDef("t2", "c0", "c1"),
	}}
	cfgB := &engine.Config{ID: "b", Indexes: []engine.IndexDef{
		engine.NewIndexDef("t0", "c1"),
	}}

	m := NewMemo("", nil, 0)
	for rep := 0; rep < 3; rep++ {
		for _, cfg := range []*engine.Config{cfgA, cfgB} {
			for _, qs := range [][]*engine.Query{queries, queries[:3], queries[2:]} {
				want := QueryIndexMap(qs, cfg)
				got, hit := m.queryIndexMap(qs, cfg, "")
				if rep > 0 && !hit {
					t.Fatalf("cfg %s rep %d: expected a full memo hit", cfg.ID, rep)
				}
				if len(got) != len(want) {
					t.Fatalf("cfg %s: len %d want %d", cfg.ID, len(got), len(want))
				}
				for q, defs := range want {
					if !reflect.DeepEqual(got[q], defs) {
						t.Fatalf("cfg %s query %s: got %v want %v", cfg.ID, q.Name, got[q], defs)
					}
				}
			}
		}
	}
}

// TestMemoQueryIndexMapNil asserts the nil memo degrades to the plain
// computation.
func TestMemoQueryIndexMapNil(t *testing.T) {
	q := mustQuery(t, "q", "SELECT * FROM t0 WHERE c0 > 5")
	cfg := &engine.Config{ID: "a", Indexes: []engine.IndexDef{engine.NewIndexDef("t0", "c0")}}
	var m *Memo
	got, _ := m.queryIndexMap([]*engine.Query{q}, cfg, "")
	want := QueryIndexMap([]*engine.Query{q}, cfg)
	if !reflect.DeepEqual(got[q], want[q]) {
		t.Fatalf("got %v want %v", got[q], want[q])
	}
}

func mustQuery(t *testing.T, name, sql string) *engine.Query {
	t.Helper()
	q, err := engine.PrepareQuery(name, sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// memoFixture builds n queries with per-query index sets drawn from a small
// pool, mirroring how the evaluator feeds the scheduler.
func memoFixture(n int) ([]*engine.Query, map[*engine.Query][]engine.IndexDef) {
	queries := make([]*engine.Query, n)
	indexMap := map[*engine.Query][]engine.IndexDef{}
	for i := range queries {
		q := &engine.Query{Name: fmt.Sprintf("q%02d", i)}
		queries[i] = q
		for j := 0; j <= i%3; j++ {
			indexMap[q] = append(indexMap[q], engine.NewIndexDef(
				fmt.Sprintf("t%d", (i+j)%5), fmt.Sprintf("c%d", j)))
		}
	}
	return queries, indexMap
}

// cloneFixture rebuilds the fixture's queries as fresh pointers with the
// same names and positionally identical index sets — the shape of a second
// job over the same workload digest.
func cloneFixture(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef) ([]*engine.Query, map[*engine.Query][]engine.IndexDef) {
	out := make([]*engine.Query, len(queries))
	m := map[*engine.Query][]engine.IndexDef{}
	for i, q := range queries {
		c := &engine.Query{Name: q.Name, Analysis: q.Analysis}
		out[i] = c
		m[c] = indexMap[q]
	}
	return out, m
}

func costOf(base float64) schedule.IndexCost {
	return func(d engine.IndexDef) float64 { return base + float64(len(d.Key())) }
}

// probeOrder runs one order probe for owner and reports whether it hit and
// whether the hit was on another job's entry.
func probeOrder(m *Memo, owner string, qs []*engine.Query, im map[*engine.Query][]engine.IndexDef, cost schedule.IndexCost, seed int64) ([]*engine.Query, bool, bool) {
	before := m.Stats().CrossJobHits
	out, hit := m.order(qs, im, cost, seed, owner)
	return out, hit, m.Stats().CrossJobHits > before
}

// checkLists asserts the order layer's bound and that its segment lists
// thread exactly the entries of its map.
func checkLists(t *testing.T, m *Memo) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.orders) > m.capacity {
		t.Fatalf("memo holds %d orders, capacity %d", len(m.orders), m.capacity)
	}
	if m.protected.n > m.protCap {
		t.Fatalf("protected segment %d exceeds bound %d", m.protected.n, m.protCap)
	}
	if m.probation.n+m.protected.n != len(m.orders) {
		t.Fatalf("list lengths %d+%d disagree with map size %d",
			m.probation.n, m.protected.n, len(m.orders))
	}
	for _, l := range []*lruList{&m.probation, &m.protected} {
		n := 0
		for e := l.front; e != nil; e = e.next {
			if m.orders[e.key] != e {
				t.Fatalf("listed entry %q is not the map's", e.key)
			}
			n++
		}
		if n != l.n {
			t.Fatalf("list threads %d entries, counts %d", n, l.n)
		}
	}
}

// TestMemoOrderMatchesPlain asserts a memo hit returns exactly the
// permutation the plain DP computes, across repeats, subsets, and changed
// costs (which must key separately).
func TestMemoOrderMatchesPlain(t *testing.T) {
	queries, indexMap := memoFixture(9)
	m := NewMemo("", nil, 0)
	check := func(qs []*engine.Query, cost schedule.IndexCost, seed int64) {
		t.Helper()
		want := schedule.Order(qs, indexMap, cost, seed)
		for rep := 0; rep < 3; rep++ {
			got, hit := m.order(qs, indexMap, cost, seed, "")
			if rep > 0 && !hit {
				t.Fatalf("rep %d: expected a memo hit", rep)
			}
			if len(got) != len(want) {
				t.Fatalf("len mismatch: got %d want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("rep %d pos %d: got %s want %s", rep, i, got[i].Name, want[i].Name)
				}
			}
		}
	}
	check(queries, costOf(10), 1)
	check(queries[:5], costOf(10), 1) // subset keys separately
	check(queries, costOf(500), 1)    // changed cost invalidates
	check(queries, costOf(10), 2)     // changed seed keys separately
	check(queries, costOf(10), 1)     // original inputs still hit correctly
}

// TestMemoNilReceiver asserts the nil memo degrades to the plain DP.
func TestMemoNilReceiver(t *testing.T) {
	queries, indexMap := memoFixture(6)
	var m *Memo
	want := schedule.Order(queries, indexMap, costOf(3), 7)
	got, hit := m.order(queries, indexMap, costOf(3), 7, "")
	if hit {
		t.Fatal("nil memo reported a hit")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pos %d: got %s want %s", i, got[i].Name, want[i].Name)
		}
	}
}

// TestMemoPointerAliasing asserts that a hit is replayed by name onto the
// probing caller's own query pointers: inputs equal in names and index sets
// but backed by fresh pointers hit the entry, and the result never carries
// a pointer of the caller that computed it.
func TestMemoPointerAliasing(t *testing.T) {
	qsA, mapA := memoFixture(6)
	qsB, mapB := memoFixture(6) // same names and index sets, fresh pointers
	m := NewMemo("", nil, 0)
	m.order(qsA, mapA, costOf(3), 1, "")
	got, hit := m.order(qsB, mapB, costOf(3), 1, "")
	if !hit {
		t.Fatal("equal names and index sets must hit")
	}
	for _, q := range got {
		found := false
		for _, b := range qsB {
			if q == b {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("result contains a query pointer not from the caller's slice")
		}
	}
}

// TestMemoNameCheckOnKeyCollision asserts the positional name check on
// order hits: names are joined with separator bytes, so these two inputs
// encode to the same key, and only their names tell them apart.
func TestMemoNameCheckOnKeyCollision(t *testing.T) {
	a := []*engine.Query{{Name: "x\x01\x03y"}, {Name: "z"}}
	b := []*engine.Query{{Name: "x"}, {Name: "y\x01\x03z"}}
	var ka, kb orderKeyBuf
	if string(ka.build(a, nil, costOf(1), 1)) != string(kb.build(b, nil, costOf(1), 1)) {
		t.Fatal("fixture no longer collides; pick inputs that encode to one key")
	}
	m := NewMemo("", nil, 0)
	m.order(a, nil, costOf(1), 1, "")
	got, hit := m.order(b, nil, costOf(1), 1, "")
	if hit {
		t.Fatal("a colliding key with different names must not hit")
	}
	want := schedule.Order(b, nil, costOf(1), 1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pos %d: got %q want %q", i, got[i].Name, want[i].Name)
		}
	}
}

// TestOrderScopedCrossOwnerRemap asserts a second owner with fresh query
// pointers (same names, same key) hits the first owner's entry and gets the
// permutation replayed onto its own pointers.
func TestOrderScopedCrossOwnerRemap(t *testing.T) {
	queries, indexMap := memoFixture(8)
	m := NewMemo("", nil, 0)
	want, hit, cross := probeOrder(m, "job-a", queries, indexMap, costOf(10), 1)
	if hit || cross {
		t.Fatalf("first computation reported hit=%v cross=%v", hit, cross)
	}

	clone, cloneMap := cloneFixture(queries, indexMap)
	got, hit, cross := probeOrder(m, "job-b", clone, cloneMap, costOf(10), 1)
	if !hit || !cross {
		t.Fatalf("cross-owner probe: hit=%v cross=%v, want true/true", hit, cross)
	}
	for i := range got {
		if got[i] == want[i] {
			t.Fatalf("pos %d: cross-owner hit leaked the owner's query pointer", i)
		}
		if got[i].Name != want[i].Name {
			t.Fatalf("pos %d: got %s want %s", i, got[i].Name, want[i].Name)
		}
	}

	// Same owner re-probing its own pointers: hit, but not cross.
	if _, hit, cross = probeOrder(m, "job-a", queries, indexMap, costOf(10), 1); !hit || cross {
		t.Fatalf("same-owner probe: hit=%v cross=%v, want true/false", hit, cross)
	}
}

// TestOrderScopedCoalescing runs many owners concurrently on the same key
// and asserts every result agrees with the plain DP — exercising the
// inflight wait path under the race detector.
func TestOrderScopedCoalescing(t *testing.T) {
	queries, indexMap := memoFixture(10)
	want := schedule.Order(queries, indexMap, costOf(10), 1)

	m := NewMemo("", nil, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		owner := fmt.Sprintf("job-%d", w)
		clone, cloneMap := cloneFixture(queries, indexMap)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := m.order(clone, cloneMap, costOf(10), 1, owner)
			for i := range got {
				if got[i].Name != want[i].Name {
					errs <- fmt.Errorf("%s pos %d: got %s want %s", owner, i, got[i].Name, want[i].Name)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := m.Stats(); st.Lookups != 16 || st.Hits != 15 {
		t.Errorf("16 probes of one key: %d lookups, %d hits; want 16 and 15 (one DP run)", st.Lookups, st.Hits)
	}
}

// TestMemoEvictThenRecompute is the eviction-correctness contract: after the
// lifecycle evicts an entry, a fresh probe of the same inputs must recompute
// a permutation identical to the originally memoized one — same names in the
// same positions, and every returned pointer drawn from the caller's own
// query slice.
func TestMemoEvictThenRecompute(t *testing.T) {
	qsA, mapA := memoFixture(7)
	cost := costOf(3)
	m := NewMemo("", nil, 6)

	orig, hit, _ := probeOrder(m, "job-a", qsA, mapA, cost, 1)
	if hit {
		t.Fatal("first probe cannot hit")
	}

	// Churn enough distinct keys through the memo to evict the original.
	for seed := int64(100); seed < 130; seed++ {
		m.order(qsA, mapA, cost, seed, "job-a")
	}
	if ev := m.Stats().Evictions; ev == 0 {
		t.Fatal("churn past capacity must evict")
	}

	// Re-probe from a different job with fresh query pointers, as a new run
	// in the same namespace would.
	qsB, mapB := memoFixture(7)
	got, hit, _ := probeOrder(m, "job-b", qsB, mapB, cost, 1)
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
	again, hit, cross := probeOrder(m, "job-c", qsB, mapB, cost, 1)
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

	m := NewMemo("", nil, 6)
	m.order(qs, im, cost, hotSeed, "hot")
	if _, hit := m.order(qs, im, cost, hotSeed, "hot"); !hit {
		t.Fatal("second probe of the hot key must hit")
	}
	for seed := int64(100); seed < 150; seed++ {
		m.order(qs, im, cost, seed, "cold")
	}
	if _, hit := m.order(qs, im, cost, hotSeed, "hot"); !hit {
		t.Fatal("protected hot entry evicted by cold churn; segmented LRU broken")
	}
	st := m.Stats()
	if st.ScheduleProtectedHits == 0 {
		t.Fatal("no protected hits recorded despite promotion")
	}
	if st.Evictions == 0 {
		t.Fatal("cold churn past capacity must evict")
	}
}

// TestMemoProtectedDemotion fills the protected segment beyond its bound and
// asserts demotion keeps the segment capped instead of growing unbounded.
func TestMemoProtectedDemotion(t *testing.T) {
	qs, im := memoFixture(6)
	cost := costOf(3)
	m := NewMemo("", nil, 5) // protected bound 4
	for seed := int64(0); seed < 5; seed++ {
		m.order(qs, im, cost, seed, "a")
		m.order(qs, im, cost, seed, "a") // re-hit: promote every entry
	}
	checkLists(t, m)
	if m.protected.n != m.protCap {
		t.Fatalf("protected segment holds %d, want its bound %d", m.protected.n, m.protCap)
	}
}

// TestMemoCapacityIsExact asserts the order layer holds exactly its
// capacity: 3c distinct keys leave c entries and 2c evictions, every probe
// returns the plain DP's permutation, and the segment lists match the map.
func TestMemoCapacityIsExact(t *testing.T) {
	qs, im := memoFixture(3)
	cost := costOf(3)
	caps := []int{100, 256, 260}
	for c := 1; c <= 20; c++ {
		caps = append(caps, c)
	}
	for _, c := range caps {
		m := NewMemo("", nil, c)
		for seed := int64(0); seed < int64(3*c); seed++ {
			got, _ := m.order(qs, im, cost, seed, "")
			want := schedule.Order(qs, im, cost, seed)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("capacity %d seed %d pos %d: memo diverged from plain DP", c, seed, i)
				}
			}
		}
		checkLists(t, m)
		if n := len(m.orders); n != c {
			t.Errorf("capacity %d: holds %d entries after %d distinct keys", c, n, 3*c)
		}
		if ev := m.Stats().Evictions; ev != uint64(2*c) {
			t.Errorf("capacity %d: evicted %d of %d distinct keys, want %d", c, ev, 3*c, 2*c)
		}
	}
}

// TestMemoMatchesPlain drives both layers from 4 goroutines with generated
// inputs — query subsets in shuffled order, configurations, costs, seeds,
// owners, fresh query pointers per probe — at every capacity from 1 to 16.
// Every relevance map must equal QueryIndexMap and every order must equal
// schedule.Order on the caller's own pointers; afterwards the segment lists
// must still match the map, and the published series the stats. Run it
// under -race.
func TestMemoMatchesPlain(t *testing.T) {
	var base []*engine.Query
	for i := 0; i < 9; i++ {
		base = append(base, mustQuery(t, fmt.Sprintf("q%d", i), fmt.Sprintf(
			"SELECT * FROM t%d a, t%d b WHERE a.c%d = b.c%d AND a.c%d > 5",
			i%4, (i+1)%4, i%3, (i+1)%3, (i+2)%3)))
	}
	var pool []engine.IndexDef
	for tb := 0; tb < 4; tb++ {
		for c := 0; c < 3; c++ {
			pool = append(pool, engine.NewIndexDef(fmt.Sprintf("t%d", tb), fmt.Sprintf("c%d", c)))
		}
	}
	costs := []schedule.IndexCost{costOf(3), costOf(10), costOf(500)}

	for capacity := 1; capacity <= 16; capacity++ {
		reg := obs.NewRegistry()
		m := NewMemo("test", reg, capacity)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for it := 0; it < 40; it++ {
					var qs []*engine.Query
					for _, i := range rng.Perm(len(base))[:1+rng.Intn(len(base))] {
						qs = append(qs, &engine.Query{Name: base[i].Name, Analysis: base[i].Analysis})
					}
					cfg := &engine.Config{ID: fmt.Sprint(it)}
					for _, i := range rng.Perm(len(pool))[:rng.Intn(7)] {
						cfg.Indexes = append(cfg.Indexes, pool[i])
					}
					owner := fmt.Sprintf("job-%d", rng.Intn(3))
					cost, seed := costs[rng.Intn(len(costs))], int64(1+rng.Intn(3))

					im, _ := m.queryIndexMap(qs, cfg, owner)
					wantMap := QueryIndexMap(qs, cfg)
					for _, q := range qs {
						if !reflect.DeepEqual(im[q], wantMap[q]) {
							t.Errorf("capacity %d: relevance of %s: got %v want %v", capacity, q.Name, im[q], wantMap[q])
							return
						}
					}
					got, _ := m.order(qs, im, cost, seed, owner)
					want := schedule.Order(qs, wantMap, cost, seed)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("capacity %d: order diverged from schedule.Order", capacity)
						return
					}
				}
			}(rand.New(rand.NewSource(int64(100*capacity + g))))
		}
		wg.Wait()
		checkLists(t, m)
		st := m.Stats()
		if st.Hits == 0 || st.Hits > st.Lookups {
			t.Errorf("capacity %d: implausible stats %+v", capacity, st)
		}
		// The published series agree with the stats and the segments.
		snap := reg.Snapshot()
		retention := 0.0
		if st.ScheduleHits > 0 {
			retention = float64(st.ScheduleProtectedHits) / float64(st.ScheduleHits)
		}
		for name, want := range map[string]float64{
			"runtime_memo_hits_total_test":           float64(st.Hits),
			"runtime_memo_misses_total_test":         float64(st.Lookups - st.Hits),
			"runtime_memo_cross_job_hits_total_test": float64(st.CrossJobHits),
			"runtime_memo_evictions_total_test":      float64(st.Evictions),
			"runtime_memo_evictions_total":           float64(st.Evictions),
			"runtime_memo_hit_retention_test":        retention,
			"runtime_memo_probation_entries_test":    float64(m.probation.n),
			"runtime_memo_protected_entries_test":    float64(m.protected.n),
		} {
			if snap[name] != want {
				t.Errorf("capacity %d: %s = %v, want %v", capacity, name, snap[name], want)
			}
		}
	}
}
