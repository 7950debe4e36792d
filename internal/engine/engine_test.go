package engine

import (
	"math"
	"strings"
	"testing"
)

// testCatalog builds a small star schema: fact(10M rows) referencing
// dim1(10k) and dim2(100).
func testCatalog() *Catalog {
	return NewCatalog("test", []Table{
		{
			Name: "fact", Rows: 10_000_000,
			Columns: []Column{
				{Name: "f_id", WidthBytes: 8, Distinct: 10_000_000},
				{Name: "f_d1", WidthBytes: 8, Distinct: 10_000},
				{Name: "f_d2", WidthBytes: 8, Distinct: 100},
				{Name: "f_val", WidthBytes: 8, Distinct: 1_000_000},
				{Name: "f_date", WidthBytes: 8, Distinct: 2500},
			},
			PrimaryKey:  []string{"f_id"},
			ForeignKeys: []string{"f_d1", "f_d2"},
		},
		{
			Name: "dim1", Rows: 10_000,
			Columns: []Column{
				{Name: "d1_id", WidthBytes: 8, Distinct: 10_000},
				{Name: "d1_cat", WidthBytes: 16, Distinct: 25},
			},
			PrimaryKey: []string{"d1_id"},
		},
		{
			Name: "dim2", Rows: 100,
			Columns: []Column{
				{Name: "d2_id", WidthBytes: 8, Distinct: 100},
				{Name: "d2_name", WidthBytes: 16, Distinct: 100},
			},
			PrimaryKey: []string{"d2_id"},
		},
	})
}

func testDB(t *testing.T) *DB {
	t.Helper()
	c := testCatalog()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewDB(Postgres, c, DefaultHardware)
}

var joinQuery = `SELECT d1.d1_cat, SUM(f.f_val)
	FROM fact f, dim1 d1, dim2 d2
	WHERE f.f_d1 = d1.d1_id AND f.f_d2 = d2.d2_id AND d2.d2_name = 'x'
	GROUP BY d1.d1_cat`

func TestCatalogBasics(t *testing.T) {
	c := testCatalog()
	if c.Table("FACT") == nil {
		t.Error("case-insensitive lookup failed")
	}
	if got := len(c.Tables()); got != 3 {
		t.Errorf("tables: %d", got)
	}
	f := c.Table("fact")
	if f.RowWidth() != 40 {
		t.Errorf("row width: %d", f.RowWidth())
	}
	if f.Pages() != 10_000_000*40/8192 {
		t.Errorf("pages: %d", f.Pages())
	}
	if c.TotalBytes() <= f.SizeBytes() {
		t.Error("total bytes should exceed fact size")
	}
}

func TestCatalogValidate(t *testing.T) {
	bad := NewCatalog("bad", []Table{{Name: "t", Rows: 0, Columns: []Column{{Name: "c", WidthBytes: 4, Distinct: 1}}}})
	if bad.Validate() == nil {
		t.Error("zero-row table accepted")
	}
	bad2 := NewCatalog("bad2", []Table{{Name: "t", Rows: 10, Columns: []Column{{Name: "c", WidthBytes: 4, Distinct: 1}}, PrimaryKey: []string{"nope"}}})
	if bad2.Validate() == nil {
		t.Error("dangling primary key accepted")
	}
}

func TestParamParsing(t *testing.T) {
	pc := Params(Postgres)
	cases := []struct {
		name, raw string
		want      float64
	}{
		{"shared_buffers", "15GB", 15 << 30},
		{"shared_buffers", "'512MB'", 512 << 20},
		{"work_mem", "64kB", 64 << 10},
		{"random_page_cost", "1.1", 1.1},
		{"effective_io_concurrency", "200", 200},
		{"enable_seqscan", "off", 0},
		{"enable_seqscan", "on", 1},
		{"checkpoint_completion_target", "0.9", 0.9},
	}
	for _, c := range cases {
		got, err := pc.ParseValue(c.name, c.raw)
		if err != nil {
			t.Errorf("ParseValue(%s, %s): %v", c.name, c.raw, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseValue(%s, %s) = %v, want %v", c.name, c.raw, got, c.want)
		}
	}
}

func TestParamClamping(t *testing.T) {
	pc := Params(Postgres)
	v, err := pc.ParseValue("checkpoint_completion_target", "7")
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("clamp: %v", v)
	}
}

func TestParamUnknown(t *testing.T) {
	pc := Params(Postgres)
	if _, err := pc.ParseValue("innodb_buffer_pool_size", "1GB"); err == nil {
		t.Error("MySQL parameter accepted on Postgres")
	}
	if _, ok := Params(MySQL).Lookup("innodb_buffer_pool_size"); !ok {
		t.Error("innodb_buffer_pool_size missing from MySQL catalog")
	}
}

func TestParseBytesFormats(t *testing.T) {
	cases := map[string]int64{
		"8192": 8192, "16MB": 16 << 20, "1 GB": 1 << 30,
		"2TB": 2 << 40, "512KB": 512 << 10, "0.5GB": 1 << 29,
	}
	for raw, want := range cases {
		got, err := parseBytes(raw)
		if err != nil {
			t.Errorf("parseBytes(%q): %v", raw, err)
			continue
		}
		if got != want {
			t.Errorf("parseBytes(%q) = %d, want %d", raw, got, want)
		}
	}
	if _, err := parseBytes("abc"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestFormatBytesRoundTrip(t *testing.T) {
	for _, b := range []int64{8192, 16 << 20, 15 << 30, 64 << 10} {
		got, err := parseBytes(FormatBytes(b))
		if err != nil || got != b {
			t.Errorf("round trip %d → %s → %d (%v)", b, FormatBytes(b), got, err)
		}
	}
}

func TestParseScriptPostgres(t *testing.T) {
	script := `
-- tuning recommendations
ALTER SYSTEM SET shared_buffers = '15GB';
ALTER SYSTEM SET random_page_cost = 1.1;
CREATE INDEX idx_f_d1 ON fact (f_d1);
CREATE INDEX ON fact (f_d2, f_val);
ALTER SYSTEM SET not_a_real_param = 42;
`
	cfg, warnings, err := ParseScript(Postgres, "c1", script)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Params["shared_buffers"] != "15GB" || cfg.Params["random_page_cost"] != "1.1" {
		t.Errorf("params: %v", cfg.Params)
	}
	if len(cfg.Indexes) != 2 {
		t.Fatalf("indexes: %v", cfg.Indexes)
	}
	if cfg.Indexes[1].Columns != "f_d2+f_val" {
		t.Errorf("composite index: %v", cfg.Indexes[1])
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "not_a_real_param") {
		t.Errorf("warnings: %v", warnings)
	}
}

func TestParseScriptMySQL(t *testing.T) {
	cfg, _, err := ParseScript(MySQL, "m1", "SET GLOBAL innodb_buffer_pool_size = 8589934592;\nCREATE INDEX i ON fact (f_d1);")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Params["innodb_buffer_pool_size"] != "8589934592" {
		t.Errorf("params: %v", cfg.Params)
	}
}

func TestParseScriptRejectsGarbage(t *testing.T) {
	if _, _, err := ParseScript(Postgres, "x", "DROP TABLE fact;"); err == nil {
		t.Error("DROP TABLE accepted")
	}
}

func TestConfigScriptRoundTrip(t *testing.T) {
	cfg := &Config{ID: "r", Params: map[string]string{"work_mem": "1GB"}, Indexes: []IndexDef{NewIndexDef("fact", "f_d1")}}
	script := cfg.Script(Postgres)
	cfg2, _, err := ParseScript(Postgres, "r2", script)
	if err != nil {
		t.Fatalf("re-parse: %v (script: %s)", err, script)
	}
	if cfg2.Params["work_mem"] != "1GB" || len(cfg2.Indexes) != 1 {
		t.Errorf("round trip: %+v", cfg2)
	}
}

func TestExecuteDeterministic(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", joinQuery)
	t1 := db.QuerySeconds(q)
	t2 := db.QuerySeconds(q)
	if t1 != t2 {
		t.Errorf("nondeterministic: %v vs %v", t1, t2)
	}
	if t1 <= 0 {
		t.Errorf("runtime: %v", t1)
	}
}

func TestExecuteAdvancesClock(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", joinQuery)
	before := db.Clock().Now()
	res := db.Execute(q, math.Inf(1))
	if !res.Complete {
		t.Fatal("not complete without timeout")
	}
	if got := db.Clock().Now() - before; math.Abs(got-res.Seconds) > 1e-12 {
		t.Errorf("clock advanced %v, result says %v", got, res.Seconds)
	}
}

func TestExecuteTimeout(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", joinQuery)
	full := db.QuerySeconds(q)
	res := db.Execute(q, full/2)
	if res.Complete {
		t.Fatal("should have timed out")
	}
	if res.Seconds != full/2 {
		t.Errorf("interrupted time %v, want %v", res.Seconds, full/2)
	}
}

func TestMoreBufferIsFaster(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", joinQuery)
	slow := db.QuerySeconds(q)
	s := db.Settings()
	s["shared_buffers"] = float64(int64(2) << 30)
	db.SetSettings(s)
	fast := db.QuerySeconds(q)
	if fast >= slow {
		t.Errorf("2GB buffers not faster: %v vs %v", fast, slow)
	}
}

func TestParallelWorkersSpeedup(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", "SELECT SUM(f_val) FROM fact")
	s := db.Settings()
	s["max_parallel_workers_per_gather"] = 0
	db.SetSettings(s)
	serial := db.QuerySeconds(q)
	s["max_parallel_workers_per_gather"] = 6
	db.SetSettings(s)
	parallel := db.QuerySeconds(q)
	if parallel >= serial {
		t.Errorf("parallel not faster: %v vs %v", parallel, serial)
	}
}

func TestWorkMemSpill(t *testing.T) {
	db := testDB(t)
	// Join with a big build side to trigger spilling under tiny work_mem.
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f, dim1 d WHERE f.f_d1 = d.d1_id")
	s := db.Settings()
	s["work_mem"] = 64 << 10
	db.SetSettings(s)
	small := db.QuerySeconds(q)
	s["work_mem"] = float64(int64(1) << 30)
	db.SetSettings(s)
	big := db.QuerySeconds(q)
	if big > small {
		t.Errorf("large work_mem slower: %v vs %v", big, small)
	}
}

func TestIndexScanChosenWithLowRandomPageCost(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f WHERE f.f_id = 42")
	noIdx := db.QuerySeconds(q)
	db.CreateIndex(NewIndexDef("fact", "f_id"))
	s := db.Settings()
	s["random_page_cost"] = 1.1
	s["effective_cache_size"] = float64(int64(45) << 30)
	db.SetSettings(s)
	withIdx := db.QuerySeconds(q)
	if withIdx >= noIdx/10 {
		t.Errorf("selective index scan not much faster: %v vs %v", withIdx, noIdx)
	}
	plan := db.Plan(q)
	if plan.Steps[0].Kind != StepIndexScan {
		t.Errorf("plan did not use index: %s", plan)
	}
}

func TestHighRandomPageCostAvoidsIndex(t *testing.T) {
	db := testDB(t)
	db.CreateIndex(NewIndexDef("fact", "f_date"))
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f WHERE f.f_date > 100")
	s := db.Settings()
	s["random_page_cost"] = 1000
	db.SetSettings(s)
	plan := db.Plan(q)
	if plan.Steps[0].Kind != StepSeqScan {
		t.Errorf("range scan with huge random_page_cost should seq-scan: %s", plan)
	}
}

func TestIndexNLJoinUsedWithIndex(t *testing.T) {
	db := testDB(t)
	db.CreateIndex(NewIndexDef("fact", "f_d2"))
	s := db.Settings()
	s["random_page_cost"] = 1.1
	s["effective_cache_size"] = float64(int64(45) << 30)
	db.SetSettings(s)
	// dim2 filtered to ~1 row joins fact: INL should win.
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f, dim2 d WHERE f.f_d2 = d.d2_id AND d.d2_name = 'x'")
	plan := db.Plan(q)
	found := false
	for _, st := range plan.Steps {
		if st.Kind == StepIndexNLJoin {
			found = true
		}
	}
	if !found {
		t.Errorf("INL join not chosen: %s", plan)
	}
}

func TestIndexCreation(t *testing.T) {
	db := testDB(t)
	def := NewIndexDef("fact", "f_d1")
	before := db.Clock().Now()
	secs := db.CreateIndex(def)
	if secs <= 0 {
		t.Fatal("index creation free")
	}
	if db.Clock().Now()-before != secs {
		t.Error("clock not advanced by creation time")
	}
	if again := db.CreateIndex(def); again != 0 {
		t.Errorf("recreation not idempotent: %v", again)
	}
	if !db.HasIndex(def) || !db.hasIndexOnColumn(probeGroup("fact", "f_d1")) {
		t.Error("index not registered")
	}
}

func TestMaintenanceWorkMemSpeedsCreation(t *testing.T) {
	db := testDB(t)
	def := NewIndexDef("fact", "f_d1")
	slow := db.IndexCreationSeconds(def)
	s := db.Settings()
	s["maintenance_work_mem"] = float64(int64(2) << 30)
	db.SetSettings(s)
	fast := db.IndexCreationSeconds(def)
	if fast >= slow {
		t.Errorf("maintenance_work_mem has no effect: %v vs %v", fast, slow)
	}
}

func TestTransientVsPermanentIndexes(t *testing.T) {
	db := testDB(t)
	db.CreatePermanentIndex(NewIndexDef("fact", "f_id"))
	db.CreateIndex(NewIndexDef("fact", "f_d1"))
	db.DropTransientIndexes()
	if !db.HasIndex(NewIndexDef("fact", "f_id")) {
		t.Error("permanent index dropped")
	}
	if db.HasIndex(NewIndexDef("fact", "f_d1")) {
		t.Error("transient index survived")
	}
	if db.PermanentIndexCount() != 1 {
		t.Errorf("permanent count: %d", db.PermanentIndexCount())
	}
}

func TestExplainReportsJoinCosts(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", joinQuery)
	jc := db.Explain(q)
	if len(jc) != 2 {
		t.Fatalf("join costs: %v", jc)
	}
	for _, j := range jc {
		if j.EstCost <= 0 {
			t.Errorf("non-positive join cost: %+v", j)
		}
	}
}

func TestUnknownTableTolerated(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", "SELECT * FROM mystery WHERE x = 1")
	if secs := db.QuerySeconds(q); secs <= 0 {
		t.Errorf("runtime: %v", secs)
	}
}

func TestMySQLFlavorSettings(t *testing.T) {
	db := NewDB(MySQL, testCatalog(), DefaultHardware)
	q := MustPrepareQuery("q", joinQuery)
	slow := db.QuerySeconds(q)
	s := db.Settings()
	s["innodb_buffer_pool_size"] = float64(int64(8) << 30)
	s["join_buffer_size"] = float64(int64(256) << 20)
	db.SetSettings(s)
	fast := db.QuerySeconds(q)
	if fast >= slow {
		t.Errorf("MySQL buffer pool has no effect: %v vs %v", fast, slow)
	}
}

func TestEnableFlagsSteerPlans(t *testing.T) {
	db := testDB(t)
	q := MustPrepareQuery("q", "SELECT COUNT(*) FROM fact f, dim1 d WHERE f.f_d1 = d.d1_id")
	s := db.Settings()
	s["enable_hashjoin"] = 0
	db.SetSettings(s)
	plan := db.Plan(q)
	for _, st := range plan.Steps {
		if st.Kind == StepHashJoin {
			t.Errorf("hash join used despite enable_hashjoin=off: %s", plan)
		}
	}
}

func TestConfigOrderingInvariance(t *testing.T) {
	// Applying the same settings in different construction orders yields
	// identical runtimes.
	db1 := testDB(t)
	db2 := testDB(t)
	q := MustPrepareQuery("q", joinQuery)
	s1 := Settings{"work_mem": 1 << 30, "shared_buffers": 4 << 30}
	s2 := Settings{"shared_buffers": 4 << 30, "work_mem": 1 << 30}
	db1.SetSettings(s1)
	db2.SetSettings(s2)
	if db1.QuerySeconds(q) != db2.QuerySeconds(q) {
		t.Error("settings order affects runtime")
	}
}
