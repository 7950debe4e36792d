package engine_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lambdatune/internal/engine"
	"lambdatune/internal/sqlparser"
	"lambdatune/internal/workload"
)

// digestConfigs is the number of configurations TestPlanDigestGolden plans
// each workload under: the flavor defaults plus seeded random ones.
const digestConfigs = 30

// planConfig is one configuration of the digest sweep: a full parameter
// assignment and a permanent index set.
type planConfig struct {
	settings engine.Settings
	indexes  []engine.IndexDef
}

// indexableColumns returns, per table, the sorted distinct columns the
// workload joins or filters on.
func indexableColumns(w *workload.Workload) map[string][]string {
	seen := map[sqlparser.ColumnUse]bool{}
	for _, q := range w.Queries {
		for _, f := range q.Analysis.Filters {
			seen[f.ColumnUse] = true
		}
		for _, j := range q.Analysis.Joins {
			seen[sqlparser.ColumnUse{Table: j.LeftTable, Column: j.LeftColumn}] = true
			seen[sqlparser.ColumnUse{Table: j.RightTable, Column: j.RightColumn}] = true
		}
	}
	cols := map[string][]string{}
	for u := range seen {
		cols[u.Table] = append(cols[u.Table], u.Column)
	}
	for _, cs := range cols {
		sort.Strings(cs)
	}
	return cols
}

// digestConfigsFor builds the sweep: the defaults with no indexes, then
// configurations seeded 1, 2, … in which every parameter is set with
// probability ½ (log-uniform over [max(Min, 1e-3), Max], or 0/1 for
// booleans) and 0–39 permanent indexes are drawn from the workload's join
// and filter columns, a quarter of them two-column.
func digestConfigsFor(f engine.Flavor, w *workload.Workload) []planConfig {
	pc := engine.Params(f)
	cols := indexableColumns(w)
	var uses []sqlparser.ColumnUse
	for t, cs := range cols {
		for _, c := range cs {
			uses = append(uses, sqlparser.ColumnUse{Table: t, Column: c})
		}
	}
	sort.Slice(uses, func(i, j int) bool {
		if uses[i].Table != uses[j].Table {
			return uses[i].Table < uses[j].Table
		}
		return uses[i].Column < uses[j].Column
	})
	out := []planConfig{{settings: pc.Defaults()}}
	for seed := int64(1); len(out) < digestConfigs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := pc.Defaults()
		for _, name := range pc.Names() {
			if rng.Intn(2) == 0 {
				continue
			}
			def, _ := pc.Lookup(name)
			if def.Type == engine.TypeBool {
				s[name] = float64(rng.Intn(2))
				continue
			}
			lo := math.Max(def.Min, 1e-3)
			s[name] = math.Exp(math.Log(lo) + rng.Float64()*(math.Log(def.Max)-math.Log(lo)))
		}
		var idx []engine.IndexDef
		for n := rng.Intn(40); n > 0; n-- {
			u := uses[rng.Intn(len(uses))]
			def := engine.NewIndexDef(u.Table, u.Column)
			if rng.Intn(4) == 0 {
				same := cols[u.Table]
				if second := same[rng.Intn(len(same))]; second != u.Column {
					def = engine.NewIndexDef(u.Table, u.Column, second)
				}
			}
			idx = append(idx, def)
		}
		out = append(out, planConfig{settings: s, indexes: idx})
	}
	return out
}

// planDigest plans every query of w on flavor f under each sweep
// configuration, with the plan cache off and on, twice each, and hashes
// every plan step bit-exactly together with each query's runtime.
func planDigest(f engine.Flavor, w *workload.Workload) string {
	h := sha256.New()
	db := engine.NewDB(f, w.Catalog, engine.DefaultHardware)
	for i, cfg := range digestConfigsFor(f, w) {
		db.SetSettings(cfg.settings)
		for _, def := range db.Indexes() {
			db.DropIndex(def)
		}
		for _, def := range cfg.indexes {
			db.CreatePermanentIndex(def)
		}
		// Alternating the order lets odd configurations start on a cache
		// still holding the previous configuration's plans.
		modes := []bool{false, true}
		if i%2 == 1 {
			modes = []bool{true, false}
		}
		for _, on := range modes {
			db.SetPlanCache(on)
			for pass := 0; pass < 2; pass++ {
				for _, q := range w.Queries {
					for _, s := range db.Plan(q).Steps {
						join := "-"
						if s.Join != nil {
							join = s.Join.String()
						}
						fmt.Fprintf(h, "%s %d %s %s %b %b %b\n", q.Name, s.Kind, s.Table, join, s.EstCost, s.TrueSeconds, s.OutRows)
					}
					fmt.Fprintf(h, "%s %b\n", q.Name, db.QuerySeconds(q))
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPlanDigestGolden pins the planner's arithmetic bit for bit: every
// plan of every built-in workload, on both flavors, over a sweep of
// settings and index sets. A planner optimization must leave the digest
// unchanged; a deliberate cost-model change regenerates the fixture with
// UPDATE_GOLDEN=1.
func TestPlanDigestGolden(t *testing.T) {
	var sb strings.Builder
	for _, name := range []string{"tpch-1", "tpch-10", "tpcds-1", "job"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []engine.Flavor{engine.Postgres, engine.MySQL} {
			fmt.Fprintf(&sb, "%s %s %s\n", name, f, planDigest(f, w))
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "plan_digest.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("plan digests changed; if the cost model changed on purpose, regenerate with UPDATE_GOLDEN=1\ngot:\n%swant:\n%s", got, want)
	}
}

// coldPlanSink keeps BenchmarkColdPlan's plans alive.
var coldPlanSink *engine.Plan

// BenchmarkColdPlan plans every query of a workload with the plan cache off:
// the cold planning a tuning run pays whenever a configuration is new.
func BenchmarkColdPlan(b *testing.B) {
	for _, name := range []string{"tpch-1", "tpcds-1", "job"} {
		w, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			db := engine.NewDB(engine.Postgres, w.Catalog, engine.DefaultHardware)
			db.SetPlanCache(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range w.Queries {
					coldPlanSink = db.Plan(q)
				}
			}
		})
	}
}
