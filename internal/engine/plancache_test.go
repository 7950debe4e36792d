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

// TestPlanStoreSharedBySnapshots: a DB and its snapshots plan into one
// store, so a plan any of them stores is a hit for the others at once, with
// nothing folded back; a snapshot configured differently plans under its own
// keys.
func TestPlanStoreSharedBySnapshots(t *testing.T) {
	db := testDB(t)
	q1 := MustPrepareQuery("q1", joinQuery)
	q2 := MustPrepareQuery("q2", "SELECT SUM(f_val) FROM fact")
	db.QuerySeconds(q1)

	a, b := db.Snapshot(), db.Snapshot()
	if a.plans != db.plans || b.plans != db.plans {
		t.Fatal("snapshots do not share the parent's store")
	}
	runCacheSteps(t, a, q1, []cacheStep{{name: "parent's plan on a snapshot", wantHit: true}})
	runCacheSteps(t, a, q2, []cacheStep{{name: "first plan on a snapshot", wantHit: false}})
	runCacheSteps(t, b, q2, []cacheStep{{name: "sibling's plan", wantHit: true}})
	runCacheSteps(t, db, q2, []cacheStep{{name: "snapshot's plan on the parent", wantHit: true}})

	if err := b.ApplyConfigParams(&Config{ID: "c", Params: map[string]string{"work_mem": "1GB"}}); err != nil {
		t.Fatal(err)
	}
	b.CreateIndex(NewIndexDef("fact", "f_d1"))
	runCacheSteps(t, b, q1, []cacheStep{{name: "reconfigured snapshot", wantHit: false}})
	if got, want := b.QuerySeconds(q1), PlanReference(b, q1).TrueSeconds(); got != want {
		t.Errorf("reconfigured snapshot reads %v, reference %v", got, want)
	}
	if got, want := db.QuerySeconds(q1), PlanReference(db, q1).TrueSeconds(); got != want {
		t.Errorf("parent reads %v after the snapshot's plan, reference %v", got, want)
	}
}

// TestPlanStoreGenerations: the current generation takes planGeneration
// plans; the next store makes it the old generation without dropping
// anything, and the store after the following generation drops the old one,
// counting each of its plans once.
func TestPlanStoreGenerations(t *testing.T) {
	var s planStore
	p := &Plan{}
	for i := 0; i <= planGeneration; i++ {
		s.store(planKey{sig: fmt.Sprint(i)}, p)
	}
	if len(s.cur) != 1 || len(s.old) != planGeneration {
		t.Errorf("after one turnover: cur %d, old %d plans, want 1 and %d", len(s.cur), len(s.old), planGeneration)
	}
	if got := s.evictions.Load(); got != 0 {
		t.Errorf("evictions = %d after the first turnover, want 0", got)
	}
	if _, ok := s.lookup(planKey{sig: "1"}); !ok {
		t.Error("a plan of the old generation became unreachable")
	}
	for i := 0; i < planGeneration; i++ {
		s.store(planKey{sig: fmt.Sprintf("next-%d", i)}, p)
	}
	if got, want := s.evictions.Load(), uint64(planGeneration-1); got != want {
		t.Errorf("evictions = %d after the second turnover, want %d", got, want)
	}
	if _, ok := s.lookup(planKey{sig: "2"}); ok {
		t.Error("a plan of the dropped generation is still stored")
	}
	if _, ok := s.lookup(planKey{sig: "1"}); !ok {
		t.Error("the plan hit in the old generation was dropped with it")
	}
}

// TestPlanStoreHitMovesPlan: a hit in the old generation moves the plan into
// the current one without turning the generations over, so a hot set as
// large as a whole generation survives any number of turnovers while the
// plans nobody hits are dropped.
func TestPlanStoreHitMovesPlan(t *testing.T) {
	var s planStore
	p := &Plan{}
	hot := func(i int) planKey { return planKey{sig: fmt.Sprintf("hot-%d", i)} }
	for i := 0; i < planGeneration; i++ {
		s.store(hot(i), p)
	}
	for round := 0; round < 5; round++ {
		s.store(planKey{sig: fmt.Sprintf("cold-%d", round)}, p) // turns over
		for i := 0; i < planGeneration; i++ {
			if _, ok := s.lookup(hot(i)); !ok {
				t.Fatalf("round %d: hot plan %d was dropped", round, i)
			}
		}
		// Only the previous round's cold plan is left to drop, and each
		// turnover dropped exactly the one before it.
		if wantOld := min(round, 1); len(s.old) != wantOld {
			t.Fatalf("round %d: %d plans left in the old generation, want %d", round, len(s.old), wantOld)
		}
		if got, want := s.evictions.Load(), uint64(max(round-1, 0)); got != want {
			t.Fatalf("round %d: evictions = %d, want %d", round, got, want)
		}
	}
	if _, ok := s.lookup(planKey{sig: "cold-0"}); ok {
		t.Error("a plan never hit survived two turnovers")
	}
}

// JoinFixture returns a DB on the star schema of testCatalog and the
// three-way join query, for BenchmarkPlanCache in the external test package.
func JoinFixture() (*DB, *Query) {
	return NewDB(Postgres, testCatalog(), DefaultHardware), MustPrepareQuery("q", joinQuery)
}
