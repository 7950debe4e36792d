package engine_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"lambdatune/internal/engine"
	"lambdatune/internal/sqlparser"
	"lambdatune/internal/workload"
)

// planCase is one configuration TestPlanMatchesReference plans under.
type planCase struct {
	settings engine.Settings
	indexes  []engine.IndexDef
}

// referenceCases returns n configurations for w on flavor f. The first
// three put composite indexes on the filter columns each query reads
// together: every index on a table's first filter column extended by
// another (equally long prefixes, which the smallest key must win), then
// every two- and three-column permutation, under the defaults and under
// index-friendly settings. The rest pair the plan digest's seeded settings
// with seeded index sets over w's join and filter columns: one to three key
// columns from one table, a tie partner with the same leading column, the
// table name in mixed case (an index no probe matches) and, for every
// query, indexes on tables it does not read.
func referenceCases(f engine.Flavor, w *workload.Workload, n int) []planCase {
	ties, perms := map[string]engine.IndexDef{}, map[string]engine.IndexDef{}
	add := func(m map[string]engine.IndexDef, t string, cols ...string) {
		def := engine.NewIndexDef(t, cols...)
		m[def.Key()] = def
	}
	for _, q := range w.Queries {
		byTable := map[string][]string{}
		for _, fl := range q.Analysis.Filters {
			if fl.Kind != sqlparser.FilterLike {
				byTable[fl.Table] = append(byTable[fl.Table], fl.Column)
			}
		}
		for t, cs := range byTable {
			for _, c := range cs[1:] {
				add(ties, t, cs[0], c)
			}
			for _, a := range cs {
				for _, b := range cs {
					if a == b {
						continue
					}
					add(perms, t, a, b)
					for _, c := range cs {
						if c != a && c != b {
							add(perms, t, a, b, c)
						}
					}
				}
			}
		}
	}
	sorted := func(m map[string]engine.IndexDef) []engine.IndexDef {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		defs := make([]engine.IndexDef, len(keys))
		for i, k := range keys {
			defs[i] = m[k]
		}
		return defs
	}
	friendly := engine.Params(f).Defaults()
	for name, v := range map[string]float64{"random_page_cost": 1.1, "effective_cache_size": 48 << 30, "innodb_buffer_pool_size": 48 << 30} {
		if _, ok := friendly[name]; ok {
			friendly[name] = v
		}
	}
	cases := []planCase{
		{engine.Params(f).Defaults(), sorted(ties)},
		{friendly, sorted(ties)},
		{friendly, sorted(perms)},
	}

	cols := indexableColumns(w)
	var tables []string
	for t := range cols {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	settings := digestConfigsFor(f, w)
	for seed := int64(1); len(cases) < n; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var set []engine.IndexDef
		for k := rng.Intn(60); k > 0; k-- {
			t := tables[rng.Intn(len(tables))]
			cs := cols[t]
			key := []string{cs[rng.Intn(len(cs))]}
			for extra := rng.Intn(3); extra > 0; extra-- {
				key = append(key, cs[rng.Intn(len(cs))])
			}
			def := engine.NewIndexDef(t, key...)
			switch rng.Intn(6) {
			case 0:
				def.Table = strings.ToUpper(def.Table[:1]) + def.Table[1:]
			case 1:
				set = append(set, engine.NewIndexDef(t, key[0], cs[rng.Intn(len(cs))]))
			}
			set = append(set, def)
		}
		cases = append(cases, planCase{settings[int(seed)%len(settings)].settings, set})
	}
	return cases
}

// TestPlanMatchesReference: Plan returns exactly the plan of the planner as
// it stood before query shapes and group probes (plan_reference_test.go),
// for every built-in query and its obfuscated twin, on both flavors, under
// the configurations of referenceCases, with the plan cache on and off.
func TestPlanMatchesReference(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 5
	}
	for _, name := range []string{"tpch-1", "tpcds-1", "job"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range []*workload.Workload{w, w.Obfuscate()} {
			for _, f := range []engine.Flavor{engine.Postgres, engine.MySQL} {
				db := engine.NewDB(f, wl.Catalog, engine.DefaultHardware)
				for i, c := range referenceCases(f, wl, n) {
					db.SetSettings(c.settings)
					for _, def := range db.Indexes() {
						db.DropIndex(def)
					}
					for _, def := range c.indexes {
						if i%2 == 0 {
							db.CreatePermanentIndex(def)
						} else {
							db.CreateIndex(def)
						}
					}
					// Cache off first on even configurations, so the first plans
					// of a fresh DB read group lists no signature has built.
					for _, on := range []bool{i%2 == 1, i%2 == 0} {
						db.SetPlanCache(on)
						for _, q := range wl.Queries {
							got, want := db.Plan(q), engine.PlanReference(db, q)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s %s config %d cache=%v %s:\ngot\n%s\nwant\n%s", wl.Name, f, i, on, q.Name, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestQueryShapeAcrossCatalogs plans one *Query alternately against the
// TPC-H SF1 and SF10 catalogs, whose statistics give different join orders:
// a shape built for one catalog must never serve the other.
func TestQueryShapeAcrossCatalogs(t *testing.T) {
	sf1, sf10 := workload.TPCH(1), workload.TPCH(10)
	dbs := []*engine.DB{
		engine.NewDB(engine.Postgres, sf1.Catalog, engine.DefaultHardware),
		engine.NewDB(engine.Postgres, sf10.Catalog, engine.DefaultHardware),
	}
	for _, db := range dbs {
		db.SetPlanCache(false)
		for _, def := range sf1.InitialIndexes() {
			db.CreatePermanentIndex(def)
		}
	}
	differ := 0
	for _, q := range sf1.Queries {
		var plans [2]*engine.Plan
		for round := 0; round < 4; round++ {
			db := dbs[round%2]
			got := db.Plan(q)
			fresh := db.Plan(engine.MustPrepareQuery(q.Name, q.SQL))
			if !reflect.DeepEqual(got, fresh) || !reflect.DeepEqual(got, engine.PlanReference(db, q)) {
				t.Fatalf("%s round %d on %s:\ngot\n%s\nfresh\n%s", q.Name, round, db.Catalog().Name, got, fresh)
			}
			plans[round%2] = got
		}
		if !reflect.DeepEqual(plans[0], plans[1]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("no query plans differently on SF1 and SF10; the test cannot tell the catalogs' shapes apart")
	}
}

// TestConcurrentShapeBuild plans freshly prepared queries on four snapshots
// at once, so their first plans race to build and publish each shape and to
// store plans in the store the snapshots share (run it with -race). The
// snapshots form two pairs, each pair with its own settings and one extra
// index. Every plan must match the reference planner's on a DB configured
// the same way; with the cache on, the pairs must store their plans under
// different keys, and a pair's plans must be hits for the pair's other
// snapshots.
func TestConcurrentShapeBuild(t *testing.T) {
	w := workload.JOB()
	pairs := []struct {
		params map[string]string
		index  engine.IndexDef
	}{
		{map[string]string{"work_mem": "1GB", "random_page_cost": "1.1"}, engine.NewIndexDef("title", "production_year")},
		{map[string]string{"work_mem": "16MB", "enable_hashjoin": "off"}, engine.NewIndexDef("movie_info", "info")},
	}
	configure := func(db *engine.DB, pair int) {
		if err := db.ApplyConfigParams(&engine.Config{ID: "pair", Params: pairs[pair].params}); err != nil {
			t.Fatal(err)
		}
		if db.CreateIndex(pairs[pair].index) <= 0 {
			t.Fatalf("pair %d: index %s not created", pair, pairs[pair].index.Key())
		}
	}
	newDB := func() *engine.DB {
		db := engine.NewDB(engine.Postgres, w.Catalog, engine.DefaultHardware)
		for _, def := range w.InitialIndexes() {
			db.CreatePermanentIndex(def)
		}
		return db
	}
	want := make([][]*engine.Plan, len(pairs))
	differ := false
	for p := range pairs {
		ref := newDB()
		configure(ref, p)
		want[p] = make([]*engine.Plan, len(w.Queries))
		for i, q := range w.Queries {
			want[p][i] = engine.PlanReference(ref, q)
			differ = differ || p > 0 && !reflect.DeepEqual(want[p][i], want[0][i])
		}
	}
	if !differ {
		t.Fatal("the pairs' configurations plan every query alike")
	}
	for _, cache := range []bool{false, true} {
		db := newDB()
		db.SetPlanCache(cache)
		fresh := make([]*engine.Query, len(w.Queries))
		for i, q := range w.Queries {
			fresh[i] = engine.MustPrepareQuery(q.Name, q.SQL)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4) // one per goroutine, each sends at most once
		for g := 0; g < 4; g++ {
			snap := db.Snapshot()
			configure(snap, g%2)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range fresh {
					i := (k + g*len(fresh)/4) % len(fresh)
					if got := snap.Plan(fresh[i]); !reflect.DeepEqual(got, want[g%2][i]) {
						errs <- fresh[i].Name
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for name := range errs {
			t.Errorf("cache=%v: %s planned differently on a snapshot", cache, name)
		}
		if !cache {
			continue
		}
		if st, keys := db.PlanCacheStats(), uint64(len(pairs)*len(fresh)); st.Misses < keys {
			t.Errorf("%d misses for %d distinct keys: the pairs share keys (%v)", st.Misses, keys, st)
		}
		for p := range pairs {
			late := db.Snapshot()
			configure(late, p)
			before := late.PlanCacheStats()
			for i, q := range fresh {
				if got := late.Plan(q); !reflect.DeepEqual(got, want[p][i]) {
					t.Errorf("pair %d: %s served a plan of another configuration", p, q.Name)
				}
			}
			if st := late.PlanCacheStats(); st.Misses != before.Misses {
				t.Errorf("pair %d: a new member missed %d plans the pair had stored", p, st.Misses-before.Misses)
			}
		}
	}
}

// prepareSink keeps BenchmarkPrepareQuery's queries alive.
var prepareSink *engine.Query

// BenchmarkPrepareQuery prepares every query of a workload: lex, parse,
// analyze and the index-probe groups, the front end a custom workload pays
// once per query.
func BenchmarkPrepareQuery(b *testing.B) {
	for _, name := range []string{"tpch-1", "tpcds-1", "job"} {
		w, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range w.Queries {
					prepareSink = engine.MustPrepareQuery(q.Name, q.SQL)
				}
			}
		})
	}
}

// BenchmarkFirstPlan plans every query of a workload once, freshly prepared
// (outside the timer) and with the plan cache off: the first cold plan of a
// query never planned before, shape build included.
func BenchmarkFirstPlan(b *testing.B) {
	for _, name := range []string{"tpch-1", "tpcds-1", "job"} {
		w, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			db := engine.NewDB(engine.Postgres, w.Catalog, engine.DefaultHardware)
			db.SetPlanCache(false)
			fresh := make([]*engine.Query, len(w.Queries))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k, q := range w.Queries {
					fresh[k] = engine.MustPrepareQuery(q.Name, q.SQL)
				}
				b.StartTimer()
				for _, q := range fresh {
					coldPlanSink = db.Plan(q)
				}
			}
		})
	}
}
