package engine

import (
	"fmt"
	"testing"
)

// step drives the table-driven invalidation tests: mutate the DB, plan the
// query, and check whether the lookup hit or missed.
type cacheStep struct {
	name    string
	mutate  func(t *testing.T, db *DB)
	wantHit bool
}

func runCacheSteps(t *testing.T, db *DB, q *Query, steps []cacheStep) {
	t.Helper()
	for _, st := range steps {
		before := db.PlanCacheStats()
		if st.mutate != nil {
			st.mutate(t, db)
		}
		db.QuerySeconds(q)
		after := db.PlanCacheStats()
		gotHit := after.Hits == before.Hits+1 && after.Misses == before.Misses
		gotMiss := after.Misses == before.Misses+1 && after.Hits == before.Hits
		switch {
		case !gotHit && !gotMiss:
			t.Fatalf("%s: counters moved %+v -> %+v, want exactly one lookup", st.name, before, after)
		case gotHit != st.wantHit:
			t.Errorf("%s: hit=%v, want hit=%v", st.name, gotHit, st.wantHit)
		}
	}
}

// TestPlanCacheSettingsInvalidation: a parameter change must miss, while
// re-installing an identical assignment (same effects fingerprint) must hit.
func TestPlanCacheSettingsInvalidation(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", joinQuery)
	runCacheSteps(t, db, q, []cacheStep{
		{name: "first plan", wantHit: false},
		{name: "repeat", wantHit: true},
		{name: "work_mem change", wantHit: false, mutate: func(t *testing.T, db *DB) {
			s := db.Settings()
			s["work_mem"] = float64(int64(1) << 30)
			db.SetSettings(s)
		}},
		{name: "identical settings reinstalled", wantHit: true, mutate: func(t *testing.T, db *DB) {
			db.SetSettings(db.Settings())
		}},
		{name: "non-planner knob change", wantHit: true, mutate: func(t *testing.T, db *DB) {
			s := db.Settings()
			s["maintenance_work_mem"] = float64(int64(2) << 30)
			db.SetSettings(s)
		}},
		{name: "revert to defaults", wantHit: true, mutate: func(t *testing.T, db *DB) {
			db.ResetSettings()
		}},
	})
}

// TestPlanCacheConfigReapplication: applying the same configuration again —
// the selector does this on every revisit — must not invalidate anything.
func TestPlanCacheConfigReapplication(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", joinQuery)
	cfg := &Config{ID: "c", Params: map[string]string{"work_mem": "512MB", "shared_buffers": "2GB"}}
	apply := func(t *testing.T, db *DB) {
		if err := db.ApplyConfigParams(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runCacheSteps(t, db, q, []cacheStep{
		{name: "plan under config", wantHit: false, mutate: apply},
		{name: "identical config reapplied", wantHit: true, mutate: apply},
	})
}

// TestPlanCacheIndexInvalidation: index creation must miss; dropping the
// transient indexes restores a previously seen index set, so the
// content-addressed signature turns what a mutation counter would miss into
// a hit.
func TestPlanCacheIndexInvalidation(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", joinQuery)
	ix := NewIndexDef("fact", "f_d1")
	runCacheSteps(t, db, q, []cacheStep{
		{name: "first plan", wantHit: false},
		{name: "create index", wantHit: false, mutate: func(t *testing.T, db *DB) {
			if db.CreateIndex(ix) <= 0 {
				t.Fatal("index not created")
			}
		}},
		{name: "repeat with index", wantHit: true},
		{name: "recreate existing index is a no-op", wantHit: true, mutate: func(t *testing.T, db *DB) {
			db.CreateIndex(ix)
		}},
		{name: "drop transient restores prior key", wantHit: true, mutate: func(t *testing.T, db *DB) {
			db.DropTransientIndexes()
		}},
		{name: "re-create same index set hits again", wantHit: true, mutate: func(t *testing.T, db *DB) {
			db.CreateIndex(ix)
		}},
		{name: "drop via DropIndex", wantHit: true, mutate: func(t *testing.T, db *DB) {
			db.DropIndex(ix)
		}},
	})
}

// TestPlanCacheUnrelatedIndexKeepsEntry: the signature only covers the
// query's probe groups — (table, leading column) pairs from its filters and
// joins — so physical-design churn the planner would never look at (an
// index-search baseline toggling candidates) leaves the entry valid.
func TestPlanCacheUnrelatedIndexKeepsEntry(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", "SELECT SUM(f_val) FROM fact WHERE f_val > 100")
	runCacheSteps(t, db, q, []cacheStep{
		{name: "first plan", wantHit: false},
		{name: "index on unreferenced table", wantHit: true, mutate: func(t *testing.T, db *DB) {
			if db.CreateIndex(NewIndexDef("dim1", "d1_cat")) <= 0 {
				t.Fatal("index not created")
			}
		}},
		{name: "index on unprobed column of same table", wantHit: true, mutate: func(t *testing.T, db *DB) {
			if db.CreateIndex(NewIndexDef("fact", "f_d1")) <= 0 {
				t.Fatal("index not created")
			}
		}},
		{name: "index on probed column", wantHit: false, mutate: func(t *testing.T, db *DB) {
			if db.CreateIndex(NewIndexDef("fact", "f_val")) <= 0 {
				t.Fatal("index not created")
			}
		}},
		{name: "composite index in probed group", wantHit: false, mutate: func(t *testing.T, db *DB) {
			if db.CreateIndex(NewIndexDef("fact", "f_val", "f_d1")) <= 0 {
				t.Fatal("index not created")
			}
		}},
	})
}

// TestPlanCacheOffIdenticalResults: the cache must be invisible in every
// simulated number — the same measurement sequence on a cache-off DB yields
// bit-identical times, and the off DB's counters never move.
func TestPlanCacheOffIdenticalResults(t *testing.T) {
	on := testDB(t)
	off := testDB(t)
	off.SetPlanCache(false)
	q := MustPrepareQuery("q", joinQuery)
	ix := NewIndexDef("fact", "f_d2")
	for round := 0; round < 3; round++ {
		for _, db := range []*DB{on, off} {
			s := db.Settings()
			s["work_mem"] = float64(int64(round+1) << 24)
			db.SetSettings(s)
			db.CreateIndex(ix)
		}
		for rep := 0; rep < 2; rep++ {
			a, b := on.QuerySeconds(q), off.QuerySeconds(q)
			if a != b {
				t.Fatalf("round %d rep %d: cache-on %v != cache-off %v", round, rep, a, b)
			}
		}
		on.DropTransientIndexes()
		off.DropTransientIndexes()
	}
	if st := off.PlanCacheStats(); st.Lookups() != 0 {
		t.Errorf("disabled cache recorded lookups: %+v", st)
	}
	if st := on.PlanCacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("enabled cache saw no traffic: %+v", st)
	}
}

// TestPlanCacheToggle: re-enabling starts from an empty cache.
func TestPlanCacheToggle(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", joinQuery)
	db.QuerySeconds(q)
	db.SetPlanCache(false)
	db.SetPlanCache(true)
	runCacheSteps(t, db, q, []cacheStep{
		{name: "after re-enable", wantHit: false},
		{name: "repeat", wantHit: true},
	})
}

// TestPlanCacheSnapshotIsolation: snapshots share the parent's frozen
// entries, but a child's private writes never leak into the parent until
// AbsorbSnapshot folds them back.
func TestPlanCacheSnapshotIsolation(t *testing.T) {
	db := testDB(t)
	q1 := MustPrepareQuery("q1", joinQuery)
	q2 := MustPrepareQuery("q2", "SELECT SUM(f_val) FROM fact")
	db.QuerySeconds(q1) // warm the parent

	child := db.Snapshot()
	if len(db.cache.write) != 0 {
		t.Fatal("Snapshot did not freeze the parent's write layer")
	}

	base := db.PlanCacheStats()
	child.QuerySeconds(q1) // served from the shared frozen layer
	if st := db.PlanCacheStats(); st.Hits != base.Hits+1 || st.Misses != base.Misses {
		t.Errorf("child lookup on shared entry: %+v -> %+v, want one hit", base, st)
	}

	child.QuerySeconds(q2) // lands in the child's private write layer
	key := planKey{eff: db.keyEff, sig: db.querySig(q2), q: q2}
	if _, ok := db.cache.lookup(key); ok {
		t.Error("child write leaked into the parent before absorb")
	}
	if len(child.cache.write) != 1 {
		t.Errorf("child write layer has %d entries, want 1", len(child.cache.write))
	}

	db.AbsorbSnapshot(child)
	if _, ok := db.cache.lookup(key); !ok {
		t.Error("AbsorbSnapshot did not fold the child's writes back")
	}
}

// TestPlanCacheWriteLayerEviction: write-layer overflow freezes the layer
// into the segment chain — entries stay reachable, nothing is discarded
// until the chain itself overflows.
func TestPlanCacheWriteLayerEviction(t *testing.T) {
	c := planCache{counters: &planCacheCounters{}}
	p := &Plan{}
	for i := 0; i <= planCacheMaxEntries; i++ {
		c.store(planKey{sig: fmt.Sprint(i)}, p)
	}
	if len(c.write) != 1 {
		t.Errorf("write layer has %d entries after overflow, want 1", len(c.write))
	}
	if len(c.frozen) != 1 {
		t.Errorf("frozen chain has %d segments after overflow, want 1", len(c.frozen))
	}
	if got := c.counters.evictions.Load(); got != 0 {
		t.Errorf("evictions = %d, want 0 — overflow must not discard entries", got)
	}
	if _, ok := c.lookup(planKey{sig: "0"}); !ok {
		t.Error("entry from the frozen segment became unreachable")
	}
	// Only when the segment chain overflows do entries actually die; the
	// compaction keeps recently-touched entries, so pin a never-touched one.
	for seg := 0; seg < planCacheMaxLayers+2; seg++ {
		for i := 0; i <= planCacheMaxEntries; i++ {
			c.store(planKey{sig: fmt.Sprintf("s%d-%d", seg, i)}, p)
		}
	}
	if got := c.counters.evictions.Load(); got == 0 {
		t.Error("chain overflow evicted nothing")
	}
	if _, ok := c.lookup(planKey{sig: "1"}); ok {
		t.Error("never-touched oldest-segment entry survived compaction")
	}
	if len(c.frozen) > planCacheMaxLayers {
		t.Errorf("frozen chain has %d layers, bound %d", len(c.frozen), planCacheMaxLayers)
	}
}

// TestPlanCacheCompactionRetention: the recency-aware compaction must keep a
// hot (re-hit) entry reachable across arbitrarily many chain overflows while
// shedding never-touched entries from the same old layers.
func TestPlanCacheCompactionRetention(t *testing.T) {
	p := &Plan{}
	hot := planKey{sig: "hot"}

	c := planCache{counters: &planCacheCounters{}}
	c.store(hot, p)
	c.freeze()
	for i := 0; i < planCacheMaxLayers+5; i++ {
		if _, ok := c.lookup(hot); !ok {
			t.Fatalf("hot entry lost after %d freezes", i)
		}
		c.store(planKey{sig: fmt.Sprintf("cold%d", i)}, p)
		c.freeze()
	}
	if _, ok := c.lookup(hot); !ok {
		t.Error("hot entry evicted despite being touched every generation")
	}
	if _, ok := c.lookup(planKey{sig: "cold0"}); ok {
		t.Error("never-touched cold entry survived compaction")
	}
	if got := c.counters.evictions.Load(); got == 0 {
		t.Error("compaction evicted nothing")
	}
	if len(c.frozen) > planCacheMaxLayers {
		t.Errorf("frozen chain has %d layers, bound %d", len(c.frozen), planCacheMaxLayers)
	}
}

// BenchmarkPlanCache measures repeat planning of the three-way join with the
// memoization cache on and off.
func BenchmarkPlanCache(b *testing.B) {
	q := MustPrepareQuery("q", joinQuery)
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			db := NewDB(Postgres, testCatalog(), DefaultHardware)
			db.SetPlanCache(on)
			db.QuerySeconds(q) // warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.QuerySeconds(q)
			}
		})
	}
}
