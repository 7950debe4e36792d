package workload

import (
	"math"
	"strings"
	"testing"

	"lambdatune/internal/engine"
)

func TestTPCHShape(t *testing.T) {
	w := TPCH(1)
	if len(w.Queries) != 22 {
		t.Fatalf("queries: %d, want 22", len(w.Queries))
	}
	if err := w.Catalog.Validate(); err != nil {
		t.Fatal(err)
	}
	li := w.Catalog.Table("lineitem")
	if li == nil || li.Rows != 6_001_215 {
		t.Fatalf("lineitem stats: %+v", li)
	}
	w10 := TPCH(10)
	li10 := w10.Catalog.Table("lineitem")
	if li10.Rows != 10*li.Rows {
		t.Errorf("SF10 scaling: %d", li10.Rows)
	}
}

func TestTPCHJoinStructure(t *testing.T) {
	w := TPCH(1)
	// Q3 joins customer-orders-lineitem.
	q3 := w.Queries[2]
	if len(q3.Analysis.Joins) != 2 {
		t.Errorf("Q3 joins: %v", q3.Analysis.Joins)
	}
	// Q5 joins six tables.
	q5 := w.Queries[4]
	if len(q5.Analysis.Tables) != 6 {
		t.Errorf("Q5 tables: %v", q5.Analysis.Tables)
	}
}

func TestTPCDSShape(t *testing.T) {
	w := TPCDS(1)
	if len(w.Queries) != 60 {
		t.Fatalf("queries: %d, want 60", len(w.Queries))
	}
	if err := w.Catalog.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Catalog.Table("store_sales").Rows != 2_880_404 {
		t.Error("store_sales rows")
	}
}

func TestJOBShape(t *testing.T) {
	w := JOB()
	if len(w.Queries) != 113 {
		t.Fatalf("queries: %d, want 113", len(w.Queries))
	}
	if err := w.Catalog.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every JOB query must reference at least 4 tables and have joins.
	for _, q := range w.Queries {
		if len(q.Analysis.Tables) < 4 {
			t.Errorf("%s: only %d tables", q.Name, len(q.Analysis.Tables))
		}
		if len(q.Analysis.Joins) < 3 {
			t.Errorf("%s: only %d joins", q.Name, len(q.Analysis.Joins))
		}
	}
}

func TestAllQueriesReferenceKnownTables(t *testing.T) {
	for _, name := range Names() {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			for _, tbl := range q.Analysis.Tables {
				if w.Catalog.Table(tbl) == nil {
					t.Errorf("%s %s: unknown table %q", name, q.Name, tbl)
				}
			}
			for _, j := range q.Analysis.Joins {
				for _, ref := range []struct{ tbl, col string }{
					{j.LeftTable, j.LeftColumn}, {j.RightTable, j.RightColumn},
				} {
					tab := w.Catalog.Table(ref.tbl)
					if tab == nil {
						t.Errorf("%s %s: join references unknown table %q", name, q.Name, ref.tbl)
						continue
					}
					if tab.Column(ref.col) == nil {
						t.Errorf("%s %s: join references unknown column %s.%s", name, q.Name, ref.tbl, ref.col)
					}
				}
			}
		}
	}
}

func TestAllQueriesExecutable(t *testing.T) {
	for _, name := range Names() {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		db := engine.NewDB(engine.Postgres, w.Catalog, engine.DefaultHardware)
		for _, q := range w.Queries {
			secs := db.QuerySeconds(q)
			if secs <= 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
				t.Errorf("%s %s: bad runtime %v", name, q.Name, secs)
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Title("nope"); err == nil {
		t.Error("Title accepted an unknown benchmark")
	}
}

// TestTitleMatchesByName pins the benchmark table: Title must name every
// accepted spelling exactly as the built workload does, or a daemon log's
// run_id drifts from the checkpoint the run writes.
func TestTitleMatchesByName(t *testing.T) {
	names := append(Names(), "tpch", "tpcds")
	for _, n := range Names() {
		names = append(names, strings.ToUpper(n))
	}
	for _, n := range names {
		title, err := Title(n)
		if err != nil {
			t.Errorf("Title(%q): %v", n, err)
			continue
		}
		w, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
			continue
		}
		if title != w.Name {
			t.Errorf("Title(%q) = %q, ByName(%q).Name = %q", n, title, n, w.Name)
		}
	}
}

func TestInitialIndexes(t *testing.T) {
	w := TPCH(1)
	defs := w.InitialIndexes()
	if len(defs) == 0 {
		t.Fatal("no initial indexes")
	}
	want := map[string]bool{}
	for _, d := range defs {
		want[d.Key()] = true
	}
	for _, key := range []string{"lineitem(l_orderkey)", "orders(o_custkey)", "part(p_partkey)"} {
		if !want[key] {
			t.Errorf("missing initial index %s (have %v)", key, defs)
		}
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.Key()] {
			t.Errorf("duplicate index %s", d.Key())
		}
		seen[d.Key()] = true
	}
}

func TestObfuscatePreservesStructure(t *testing.T) {
	w := TPCH(1)
	o := w.Obfuscate()
	if len(o.Queries) != len(w.Queries) {
		t.Fatal("query count changed")
	}
	if err := o.Catalog.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		oq := o.Queries[i]
		if len(oq.Analysis.Joins) != len(q.Analysis.Joins) {
			t.Errorf("%s: join count changed", q.Name)
		}
		if len(oq.Analysis.Tables) != len(q.Analysis.Tables) {
			t.Errorf("%s: table count changed", q.Name)
		}
		for _, tbl := range oq.Analysis.Tables {
			if tbl[0] != 't' {
				t.Errorf("%s: table %q not obfuscated", q.Name, tbl)
			}
			if o.Catalog.Table(tbl) == nil {
				t.Errorf("%s: obfuscated table %q missing from catalog", q.Name, tbl)
			}
		}
	}
}

func TestObfuscatedRuntimesMatch(t *testing.T) {
	// Obfuscation renames but preserves statistics, so runtimes are equal.
	w := TPCH(1)
	o := w.Obfuscate()
	db1 := engine.NewDB(engine.Postgres, w.Catalog, engine.DefaultHardware)
	db2 := engine.NewDB(engine.Postgres, o.Catalog, engine.DefaultHardware)
	for i := range w.Queries {
		t1 := db1.QuerySeconds(w.Queries[i])
		t2 := db2.QuerySeconds(o.Queries[i])
		if math.Abs(t1-t2) > 1e-9*math.Max(t1, 1) {
			t.Errorf("%s: runtime changed under obfuscation: %v vs %v", w.Queries[i].Name, t1, t2)
		}
	}
}

// TestObfuscatedPlanCacheOnEqualsOff: an obfuscated query probes indexes
// under its renamed columns, so its plan-cache signature must see them.
// Every query is planned once, then every join column is indexed; each
// query's seconds must match between the plan cache on and off.
func TestObfuscatedPlanCacheOnEqualsOff(t *testing.T) {
	for _, name := range []string{"tpch-1", "tpcds-1", "job"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		o := w.Obfuscate()
		for _, fl := range []engine.Flavor{engine.Postgres, engine.MySQL} {
			seconds := func(cache bool) []float64 {
				db := engine.NewDB(fl, o.Catalog, engine.DefaultHardware)
				db.SetPlanCache(cache)
				for _, q := range o.Queries {
					db.QuerySeconds(q)
				}
				for _, q := range o.Queries {
					for _, j := range q.Analysis.Joins {
						db.CreateIndex(engine.NewIndexDef(j.LeftTable, j.LeftColumn))
						db.CreateIndex(engine.NewIndexDef(j.RightTable, j.RightColumn))
					}
				}
				out := make([]float64, len(o.Queries))
				for i, q := range o.Queries {
					out[i] = db.QuerySeconds(q)
				}
				return out
			}
			on, off := seconds(true), seconds(false)
			differ := 0
			for i := range on {
				if on[i] != off[i] {
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("%s/%v: %d of %d obfuscated queries read different seconds with the plan cache on and off",
					name, fl, differ, len(on))
			}
		}
	}
}
