package lambdatune

import (
	"strings"
	"testing"
)

func TestBenchmarkQuickstart(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 22 {
		t.Fatalf("queries: %d", w.Len())
	}
	res, err := db.Tune(w, NewSimulatedLLM(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1 {
		t.Errorf("no speedup: %v", res.Speedup())
	}
	if !strings.Contains(res.BestScript, "ALTER SYSTEM SET") {
		t.Errorf("script:\n%s", res.BestScript)
	}
	if res.Candidates != 5 || res.PromptTokens <= 0 {
		t.Errorf("bookkeeping: %+v", res)
	}
	if len(res.Parameters()) == 0 {
		t.Error("no parameters")
	}
}

func TestBenchmarkUnknown(t *testing.T) {
	if _, _, err := Benchmark("nope", Postgres); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if len(BenchmarkNames()) < 4 {
		t.Error("benchmark list")
	}
}

func TestApplyMatchesMeasurement(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Tune(w, NewSimulatedLLM(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Apply(res); err != nil {
		t.Fatal(err)
	}
	got := db.WorkloadSeconds(w)
	if diff := got - res.BestSeconds; diff > res.BestSeconds*0.01 || diff < -res.BestSeconds*0.01 {
		t.Errorf("applied config runs in %v, tuner measured %v", got, res.BestSeconds)
	}
	db.ResetConfiguration()
	if db.WorkloadSeconds(w) <= got {
		t.Error("reset did not undo tuning")
	}
}

func TestCustomSchemaAndWorkload(t *testing.T) {
	db, err := NewDatabase(Postgres, "shop", []Table{
		{
			Name: "sales", Rows: 5_000_000,
			Columns: []Column{
				{Name: "s_id", WidthBytes: 8, Distinct: 5_000_000},
				{Name: "s_product", WidthBytes: 8, Distinct: 10_000},
				{Name: "s_amount", WidthBytes: 8, Distinct: 100_000},
				{Name: "s_day", WidthBytes: 4, Distinct: 365},
			},
			PrimaryKey:  []string{"s_id"},
			ForeignKeys: []string{"s_product"},
		},
		{
			Name: "products", Rows: 10_000,
			Columns: []Column{
				{Name: "p_id", WidthBytes: 8, Distinct: 10_000},
				{Name: "p_category", WidthBytes: 16, Distinct: 40},
			},
			PrimaryKey: []string{"p_id"},
		},
	}, DefaultHardware)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ParseWorkload("shop", map[string]string{
		"revenue": `SELECT p.p_category, SUM(s.s_amount) FROM sales s, products p
			WHERE s.s_product = p.p_id GROUP BY p.p_category`,
		"daily": `SELECT s.s_day, COUNT(*) FROM sales s WHERE s.s_day BETWEEN 100 AND 200 GROUP BY s.s_day`,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Tune(w, NewSimulatedLLM(7), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestSeconds <= 0 {
		t.Errorf("best: %v", res.BestSeconds)
	}
}

func TestParseWorkloadBadSQL(t *testing.T) {
	if _, err := ParseWorkload("x", map[string]string{"bad": "DELETE FROM t"}); err == nil {
		t.Error("bad SQL accepted")
	}
}

func TestNewDatabaseBadSchema(t *testing.T) {
	_, err := NewDatabase(Postgres, "bad", []Table{{Name: "t", Rows: 0, Columns: []Column{{Name: "c", WidthBytes: 4, Distinct: 1}}}}, DefaultHardware)
	if err == nil {
		t.Error("invalid schema accepted")
	}
}

// TestNewDatabaseLeavesTablesUnchanged asserts NewDatabase normalizes key
// names in its own copies, never in the caller's slices.
func TestNewDatabaseLeavesTablesUnchanged(t *testing.T) {
	tables := []Table{{Name: "Orders", Rows: 100, Columns: []Column{
		{Name: "ID", WidthBytes: 8, Distinct: 100},
		{Name: "Customer_ID", WidthBytes: 8, Distinct: 10},
	}, PrimaryKey: []string{"ID"}, ForeignKeys: []string{"Customer_ID"}}}
	if _, err := NewDatabase(Postgres, "shop", tables, DefaultHardware); err != nil {
		t.Fatal(err)
	}
	got := tables[0]
	if got.Name != "Orders" || got.Columns[0].Name != "ID" || got.PrimaryKey[0] != "ID" || got.ForeignKeys[0] != "Customer_ID" {
		t.Errorf("NewDatabase rewrote the caller's table: %+v", got)
	}
}

// TestNewDatabaseDuplicateTable asserts two tables whose names differ only
// in case are rejected, naming the table, instead of collapsing into one.
func TestNewDatabaseDuplicateTable(t *testing.T) {
	cols := []Column{{Name: "c", WidthBytes: 4, Distinct: 1}}
	_, err := NewDatabase(Postgres, "dup", []Table{
		{Name: "t", Rows: 10, Columns: cols},
		{Name: "T", Rows: 20, Columns: cols},
	}, DefaultHardware)
	if err == nil || !strings.Contains(err.Error(), `"T"`) {
		t.Errorf("duplicate table: err = %v, want an error naming \"T\"", err)
	}
}

func TestApplyScript(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	before := db.WorkloadSeconds(w)
	err = db.ApplyScript(`
ALTER SYSTEM SET shared_buffers = '15GB';
ALTER SYSTEM SET max_parallel_workers_per_gather = 8;
CREATE INDEX idx ON lineitem (l_orderkey);
`)
	if err != nil {
		t.Fatal(err)
	}
	if after := db.WorkloadSeconds(w); after >= before {
		t.Errorf("script had no effect: %v vs %v", after, before)
	}
}

func TestMySQLFlavorViaAPI(t *testing.T) {
	db, w, err := Benchmark("tpch-1", MySQL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Tune(w, NewSimulatedLLM(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.BestScript, "SET GLOBAL") {
		t.Errorf("MySQL script dialect:\n%s", res.BestScript)
	}
}

func TestQuerySecondsPerQuery(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	times := db.QuerySeconds(w)
	if len(times) != 22 {
		t.Fatalf("per-query times: %d", len(times))
	}
	var sum float64
	for _, v := range times {
		sum += v
	}
	if total := db.WorkloadSeconds(w); sum < total*0.99 || sum > total*1.01 {
		t.Errorf("per-query sum %v vs workload %v", sum, total)
	}
}

func TestTokenBudgetOption(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.TokenBudget = 100
	res, err := db.Tune(w, NewSimulatedLLM(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PromptTokens > 400 {
		t.Errorf("prompt tokens %d despite 100-token workload budget", res.PromptTokens)
	}
}

func TestWithRetrieval(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	client := WithRetrieval(NewSimulatedLLM(1), nil)
	if !strings.Contains(client.Name(), "rag") {
		t.Errorf("client name: %s", client.Name())
	}
	res, err := db.Tune(w, client, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1 {
		t.Errorf("RAG-augmented tuning found no speedup: %v", res.Speedup())
	}
}
