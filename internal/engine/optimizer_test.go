package engine

import (
	"math"
	"testing"
	"testing/quick"
)

func optTestDB(t *testing.T) *DB {
	t.Helper()
	return NewDB(Postgres, testCatalog(), DefaultHardware)
}

func TestMergeJoinFallbackWhenHashDisabled(t *testing.T) {
	db := optTestDB(t)
	s := db.Settings()
	s["enable_hashjoin"] = 0
	db.SetSettings(s)
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f, dim1 d WHERE f.f_d1 = d.d1_id")
	plan := db.Plan(q)
	foundMerge := false
	for _, st := range plan.Steps {
		if st.Kind == StepHashJoin {
			t.Fatalf("hash join used while disabled: %s", plan)
		}
		if st.Kind == StepMergeJoin {
			foundMerge = true
		}
		if st.Kind == StepNestLoop {
			t.Fatalf("quadratic nested loop instead of merge join: %s", plan)
		}
	}
	if !foundMerge {
		t.Errorf("no merge join in plan: %s", plan)
	}
}

func TestHashJoinOffBoundedSlowdown(t *testing.T) {
	// Disabling hash joins must cost single-digit factors (merge join
	// fallback), never the quadratic blowup of a naive nested loop.
	db := optTestDB(t)
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f, dim1 d WHERE f.f_d1 = d.d1_id")
	base := db.QuerySeconds(q)
	s := db.Settings()
	s["enable_hashjoin"] = 0
	db.SetSettings(s)
	slow := db.QuerySeconds(q)
	if slow < base*0.5 {
		t.Errorf("disabling hash joins halved runtime: %v vs %v", slow, base)
	}
	if slow > base*20 {
		t.Errorf("hash-off slowdown unbounded: %v vs %v", slow, base)
	}
}

func TestPlannerKnowsParallelScans(t *testing.T) {
	// The planner's seq-scan estimate accounts for parallel workers, so a
	// selective index scan should not be displaced by raising workers.
	db := optTestDB(t)
	db.CreateIndex(NewIndexDef("fact", "f_id"))
	s := db.Settings()
	s["random_page_cost"] = 1.1
	s["max_parallel_workers_per_gather"] = 7
	db.SetSettings(s)
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f WHERE f.f_id = 42")
	if plan := db.Plan(q); plan.Steps[0].Kind != StepIndexScan {
		t.Errorf("point lookup lost to parallel scan: %s", plan)
	}
}

func TestSelectivityOrdering(t *testing.T) {
	col := &Column{Name: "c", WidthBytes: 8, Distinct: 1000}
	eq := selectivity(col, 0)     // FilterEq
	in := selectivity(col, 1)     // FilterIn
	rng := selectivity(col, 2)    // FilterRange
	if !(eq <= in && in <= rng) { //nolint
		t.Errorf("selectivity ordering: eq=%v in=%v range=%v", eq, in, rng)
	}
	if s := selectivity(nil, 0); s <= 0 || s > 1 {
		t.Errorf("nil-column selectivity: %v", s)
	}
}

func TestSortCostSpill(t *testing.T) {
	noSpill := sortCost(1000, 1<<30)
	if noSpill.spillPages != 0 {
		t.Error("small sort spilled")
	}
	spill := sortCost(1_000_000, 64<<10)
	if spill.spillPages <= 0 {
		t.Error("huge sort with tiny work_mem did not spill")
	}
}

// TestQueryTimeMonotoneInBuffer is a property test: for random buffer sizes
// b1 < b2, runtime(b2) ≤ runtime(b1).
func TestQueryTimeMonotoneInBuffer(t *testing.T) {
	db := optTestDB(t)
	q := MustPrepareQuery("q", joinQuery)
	f := func(a, b uint32) bool {
		lo := float64(a%64+1) * float64(1<<28) // 256MB .. 16GB
		hi := float64(b%64+1) * float64(1<<28)
		if lo > hi {
			lo, hi = hi, lo
		}
		s := db.Settings()
		s["shared_buffers"] = lo
		db.SetSettings(s)
		tLo := db.QuerySeconds(q)
		s["shared_buffers"] = hi
		db.SetSettings(s)
		tHi := db.QuerySeconds(q)
		return tHi <= tLo+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPlanCostsFinite: plans never produce NaN/Inf on any workload query
// under randomized settings.
func TestPlanCostsFinite(t *testing.T) {
	db := optTestDB(t)
	f := func(wm, sb uint32, rpc uint8) bool {
		s := db.Settings()
		s["work_mem"] = float64(wm%1024+64) * 1024
		s["shared_buffers"] = float64(sb%4096+8) * float64(1<<20)
		s["random_page_cost"] = float64(rpc%40) + 0.1
		db.SetSettings(s)
		q := MustPrepareQuery("q", joinQuery)
		plan := db.Plan(q)
		for _, st := range plan.Steps {
			if math.IsNaN(st.EstCost) || math.IsInf(st.EstCost, 0) ||
				math.IsNaN(st.TrueSeconds) || math.IsInf(st.TrueSeconds, 0) ||
				st.TrueSeconds < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPlanString(t *testing.T) {
	db := optTestDB(t)
	q := MustPrepareQuery("q", joinQuery)
	out := db.Plan(q).String()
	if out == "" {
		t.Error("empty plan rendering")
	}
}

func TestCompositeIndexNarrowsScan(t *testing.T) {
	// With filters on f_d2 (eq) and f_date (range), a composite index
	// (f_d2, f_date) must beat the single-column index (f_d2).
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f WHERE f.f_d2 = 7 AND f.f_date > 100")

	single := optTestDB(t)
	s := single.Settings()
	s["random_page_cost"] = 1.1
	single.SetSettings(s)
	single.CreateIndex(NewIndexDef("fact", "f_d2"))
	tSingle := single.QuerySeconds(q)

	composite := optTestDB(t)
	composite.SetSettings(s)
	composite.CreateIndex(NewIndexDef("fact", "f_d2", "f_date"))
	tComposite := composite.QuerySeconds(q)

	if tComposite >= tSingle {
		t.Errorf("composite index not narrower: %v vs single %v", tComposite, tSingle)
	}
	if plan := composite.Plan(q); plan.Steps[0].Kind != StepIndexScan {
		t.Errorf("composite plan: %s", plan)
	}
}

func TestCompositePrefixRequiresLeadingColumn(t *testing.T) {
	// An index (f_date, f_d2) cannot serve a filter on f_d2 alone... but a
	// filter on f_date can use it; a query filtering only f_d2 must not.
	db := optTestDB(t)
	s := db.Settings()
	s["random_page_cost"] = 1.1
	db.SetSettings(s)
	db.CreateIndex(NewIndexDef("fact", "f_date", "f_d2"))
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f WHERE f.f_d2 = 7")
	if plan := db.Plan(q); plan.Steps[0].Kind == StepIndexScan {
		t.Errorf("non-leading composite column used for index scan: %s", plan)
	}
}

func TestCompositePrefixTieBreakIsDeterministic(t *testing.T) {
	// (f_d2, f_date) and (f_d2, f_val) both match two key columns of the
	// query, so the planner must break the tie the same way on every DB —
	// whatever the creation order or the index map's iteration order — by
	// picking the smaller index key, (f_d2, f_date).
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f WHERE f.f_d2 = 7 AND f.f_date > 100 AND f.f_val = 3")
	byDate, byVal := NewIndexDef("fact", "f_d2", "f_date"), NewIndexDef("fact", "f_d2", "f_val")
	measure := func(defs ...IndexDef) float64 {
		db := optTestDB(t)
		db.SetPlanCache(false)
		s := db.Settings()
		s["random_page_cost"] = 1.1
		db.SetSettings(s)
		for _, d := range defs {
			db.CreateIndex(d)
		}
		return db.QuerySeconds(q)
	}
	want := measure(byDate)
	for i := 0; i < 200; i++ {
		defs := []IndexDef{byDate, byVal}
		if i%2 == 1 {
			defs[0], defs[1] = byVal, byDate
		}
		if got := measure(defs...); got != want {
			t.Fatalf("DB %d (create %s then %s): QuerySeconds = %v, want %v (the %s prefix)",
				i, defs[0].Key(), defs[1].Key(), got, want, byDate.Key())
		}
	}
}
