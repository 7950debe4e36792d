package evaluator

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"lambdatune/internal/backend"
	"lambdatune/internal/core/prompt"
	"lambdatune/internal/engine"
	"lambdatune/internal/llm"
	"lambdatune/internal/sqlparser"
	"lambdatune/internal/workload"
)

// queryIndexDefsReference is the relevance test as it stood before indexes
// were prepared once per configuration: every (query, configuration) pair
// rebuilds the query's "table.column" set, splits each index's column list
// and sorts with a comparator that rebuilds Key on every comparison.
func queryIndexDefsReference(q *engine.Query, cfg *engine.Config, cols map[string]bool) []engine.IndexDef {
	clear(cols)
	for _, j := range q.Analysis.Joins {
		cols[j.LeftTable+"."+j.LeftColumn] = true
		cols[j.RightTable+"."+j.RightColumn] = true
	}
	for _, f := range q.Analysis.Filters {
		cols[f.Table+"."+f.Column] = true
	}
	var defs []engine.IndexDef
	for _, ix := range cfg.Indexes {
		lead := ix.ColumnList()[0]
		if cols[strings.ToLower(ix.Table)+"."+lead] {
			defs = append(defs, ix)
		}
	}
	sort.Slice(defs, func(a, b int) bool { return defs[a].Key() < defs[b].Key() })
	return defs
}

// simCandidates returns the configurations the LLM simulator proposes for w
// on flavor at seeds 1–5, five samples each at the tuner's default
// temperature — the candidates of a default tuning run. Unparseable samples
// are skipped, as the tuner drops them.
func simCandidates(tb testing.TB, w *workload.Workload, flavor engine.Flavor) []*engine.Config {
	tb.Helper()
	db := backend.NewSim(flavor, w.Catalog, engine.DefaultHardware)
	pr, err := prompt.Generate(db, w.Queries, db.Hardware(), prompt.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	var cfgs []*engine.Config
	for seed := int64(1); seed <= 5; seed++ {
		client := llm.NewSimClient(seed)
		for i := 1; i <= 5; i++ {
			out, err := client.CompleteT(context.Background(), pr.Text, 0.7)
			if err != nil {
				tb.Fatal(err)
			}
			if cfg, _, err := engine.ParseScript(flavor, fmt.Sprintf("llm-%d-%d", seed, i), out); err == nil {
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// handBuiltCase is a configuration the LLM simulator never proposes:
// duplicate index keys under different names, an upper-case table, a
// composite index, and an index whose leading column the query reads only
// through a LIKE filter. Its queries include one built without
// PrepareQuery and one that names the same column in a join and a filter.
func handBuiltCase(t *testing.T) ([]*engine.Query, *engine.Config) {
	like := mustQuery(t, "like", "SELECT * FROM part p, lineitem l WHERE p.p_name LIKE '%green%' AND p.p_partkey = l.l_partkey")
	var likeOnly bool
	for _, f := range like.Analysis.Filters {
		likeOnly = likeOnly || (f.Column == "p_name" && f.Kind == sqlparser.FilterLike)
	}
	if !likeOnly {
		t.Fatalf("p_name is not a LIKE filter: %+v", like.Analysis.Filters)
	}
	hand := &engine.Query{Name: "hand", Analysis: like.Analysis}
	queries := []*engine.Query{
		like, hand,
		mustQuery(t, "join", "SELECT * FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND o.o_orderkey > 5 AND o.o_totalprice > 5"),
		mustQuery(t, "none", "SELECT * FROM region"),
	}
	cfg := &engine.Config{ID: "hand", Indexes: []engine.IndexDef{
		{Table: "lineitem", Columns: "l_partkey", Name: "first"},
		{Table: "part", Columns: "p_name"},
		{Table: "lineitem", Columns: "l_partkey", Name: "second"},
		{Table: "LINEITEM", Columns: "l_orderkey"},
		{Table: "orders", Columns: "o_orderkey+o_totalprice"},
		{Table: "lineitem", Columns: "l_partkey", Name: "third"},
		{Table: "part", Columns: "p_partkey"},
		{Table: "orders", Columns: "o_totalprice"},
		{Table: "part", Columns: "p_name", Name: "again"},
	}}
	return queries, cfg
}

// sameRelevance compares got with the reference element by element, Name
// included.
func sameRelevance(queries []*engine.Query, cfg *engine.Config, got map[*engine.Query][]engine.IndexDef) error {
	cols := map[string]bool{}
	for _, q := range queries {
		want := queryIndexDefsReference(q, cfg, cols)
		if len(got[q]) != len(want) {
			return fmt.Errorf("query %s: %d indexes, reference %d (%v vs %v)", q.Name, len(got[q]), len(want), got[q], want)
		}
		for i := range want {
			if got[q][i] != want[i] {
				return fmt.Errorf("query %s: position %d holds %s named %q, reference %s named %q",
					q.Name, i, got[q][i].Key(), got[q][i].Name, want[i].Key(), want[i].Name)
			}
		}
	}
	return nil
}

// TestQueryIndexMapMatchesReference: QueryIndexMap and the memo's miss path
// return the reference's relevance slices — the same indexes in the same
// order, names included — on every built-in workload on both flavors under
// each LLM-sim candidate, and on a hand-built configuration with duplicate
// keys and a LIKE-only filter column.
func TestQueryIndexMapMatchesReference(t *testing.T) {
	check := func(queries []*engine.Query, cfg *engine.Config) {
		t.Helper()
		if err := sameRelevance(queries, cfg, QueryIndexMap(queries, cfg)); err != nil {
			t.Fatalf("%s: QueryIndexMap: %v", cfg.ID, err)
		}
		memo, _ := NewMemo("", nil, 0).queryIndexMap(queries, cfg, "")
		if err := sameRelevance(queries, cfg, memo); err != nil {
			t.Fatalf("%s: memo: %v", cfg.ID, err)
		}
	}
	queries, cfg := handBuiltCase(t)
	check(queries, cfg)
	likeHits := 0
	for _, d := range QueryIndexMap(queries, cfg)[queries[0]] {
		if d.Columns == "p_name" {
			likeHits++
		}
	}
	if likeHits != 2 {
		t.Fatalf("LIKE query: %d relevant p_name indexes, want 2", likeHits)
	}

	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, flavor := range []engine.Flavor{engine.Postgres, engine.MySQL} {
			for _, cfg := range simCandidates(t, w, flavor) {
				check(w.Queries, cfg)
			}
		}
	}
}

// BenchmarkQueryIndexMap measures one relevance map as Evaluate builds it on
// a memo miss: JOB's 113 queries under the first LLM-sim candidate
// (Postgres, seed 1).
func BenchmarkQueryIndexMap(b *testing.B) {
	w := workload.JOB()
	cfg := simCandidates(b, w, engine.Postgres)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QueryIndexMap(w.Queries, cfg)
	}
}
