package bench

import (
	"math"
	"strings"
	"testing"

	"lambdatune/internal/engine"
)

func TestRunTrialTPCH(t *testing.T) {
	r := NewRunner()
	sc := Scenario{Benchmark: "tpch-1", Flavor: engine.Postgres, InitialIndexes: false, Trials: 1, Seed: 1}
	res, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 1 {
		t.Fatalf("trials: %d", len(res.Trials))
	}
	times := res.BestTimes()
	for _, name := range SystemNames {
		if math.IsInf(times[name], 1) {
			t.Errorf("%s found no configuration", name)
		}
	}
	// λ-Tune must be at or near the front (the paper's headline claim):
	// within 2x of the scenario best.
	best := minFinite(sortedSystemTimes(times))
	if times["λ-Tune"] > 2*best {
		t.Errorf("λ-Tune %v vs scenario best %v", times["λ-Tune"], best)
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner()
	sc := Scenario{Benchmark: "tpch-1", Flavor: engine.Postgres, Trials: 1, Seed: 1}
	a, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("runner did not cache")
	}
}

func TestScenarioInitialIndexes(t *testing.T) {
	sc := Scenario{Benchmark: "tpch-1", Flavor: engine.Postgres, InitialIndexes: true, Seed: 1}
	db, _, err := sc.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	if db.PermanentIndexCount() == 0 {
		t.Error("no initial indexes in initial-index scenario")
	}
}

func TestLambdaTuneParamsOnly(t *testing.T) {
	sc := Scenario{Benchmark: "tpch-1", Flavor: engine.Postgres, InitialIndexes: true, Seed: 1}
	db, w, err := sc.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	lt := &LambdaTune{Seed: 1, ParamsOnly: true}
	res, err := lt.RunLambdaTune(db, w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if len(c.Indexes) > 0 {
			t.Errorf("candidate %s has indexes in params-only mode", c.ID)
		}
	}
}

func TestTable5Build(t *testing.T) {
	t5, err := BuildTable5(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Params) == 0 {
		t.Error("no parameters in Table 5")
	}
	if len(t5.Indexes) == 0 {
		t.Error("no indexes in Table 5")
	}
	if t5.WorkloadSeconds >= t5.DefaultSeconds {
		t.Errorf("tuned %v not faster than default %v", t5.WorkloadSeconds, t5.DefaultSeconds)
	}
	out := RenderTable5(t5)
	if !strings.Contains(out, "shared_buffers") {
		t.Errorf("render missing shared_buffers:\n%s", out)
	}
}

func TestFigure5PerQueryNoRegressions(t *testing.T) {
	rows, err := Figure5(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 22 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Paper: gains or at least equal performance for every single query
	// (allow 5% noise).
	for _, r := range rows {
		if r.Tuned > r.Default*1.05 {
			t.Errorf("%s regressed: %v → %v", r.Query, r.Default, r.Tuned)
		}
	}
}

func TestFigure7BudgetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full token-budget study (~20s)")
	}
	rows, err := Figure7(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows: %d", len(rows))
	}
	// The compressed model-limit prompt must beat the full-SQL prompt
	// despite far fewer tokens (paper: better with >10x token reduction).
	var modelLimit, fullSQL *Figure7Row
	for i := range rows {
		switch rows[i].Label {
		case "compressed (model limit)":
			modelLimit = &rows[i]
		case "full SQL queries":
			fullSQL = &rows[i]
		}
	}
	if modelLimit == nil || fullSQL == nil {
		t.Fatal("rows missing")
	}
	if modelLimit.BestTime > fullSQL.BestTime*1.02 {
		t.Errorf("compressed (%v) worse than full SQL (%v)", modelLimit.BestTime, fullSQL.BestTime)
	}
	if modelLimit.WorkloadTokens >= fullSQL.WorkloadTokens {
		t.Errorf("compressed tokens %d not below full SQL %d", modelLimit.WorkloadTokens, fullSQL.WorkloadTokens)
	}
}

func TestOutlierStudy(t *testing.T) {
	o, err := Outliers(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Times) < 10 {
		t.Fatalf("only %d samples completed", len(o.Times))
	}
	// Paper: outliers up to ~5x the optimum. Require a clear spread.
	if o.Ratio < 1.5 {
		t.Errorf("no outliers observed: ratio %.2f", o.Ratio)
	}
	if o.Ratio > 20 {
		t.Errorf("implausible outlier ratio %.2f", o.Ratio)
	}
}

func TestDexterAndDB2IndexHelpers(t *testing.T) {
	sc := Scenario{Benchmark: "tpch-1", Flavor: engine.Postgres, Seed: 1}
	db, w, err := sc.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	dx := DexterIndexes(db, w.Queries)
	if len(dx) == 0 {
		t.Error("Dexter helper returned nothing")
	}
	d2 := DB2Indexes(db, w.Queries)
	if len(d2) == 0 {
		t.Error("DB2 helper returned nothing")
	}
	// Helpers must restore settings.
	if db.Settings()["random_page_cost"] != 4.0 {
		t.Error("helper leaked planner settings")
	}
}

func TestStripIndexesHelper(t *testing.T) {
	if !isCreateIndex("  CREATE INDEX i ON t (c);") {
		t.Error("isCreateIndex false negative")
	}
	if isCreateIndex("ALTER SYSTEM SET x = 1;") {
		t.Error("isCreateIndex false positive")
	}
}

func TestTransferStudy(t *testing.T) {
	s, err := Transfer(1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §6.3: memory-related settings transfer across OLAP workloads.
	shared := map[string]bool{}
	for _, p := range s.SharedParams {
		shared[p] = true
	}
	for _, want := range []string{"maintenance_work_mem", "random_page_cost"} {
		if !shared[want] {
			t.Errorf("%s not shared across benchmarks (shared: %v)", want, s.SharedParams)
		}
	}
	// Index recommendations are workload-specific: overlap must be zero.
	for pair, ov := range s.IndexOverlap {
		if ov > 0 {
			t.Errorf("index sets overlap across benchmarks %s: %.2f", pair, ov)
		}
	}
	out := RenderTransfer(s)
	if !strings.Contains(out, "shared_buffers") {
		t.Errorf("render:\n%s", out)
	}
}
