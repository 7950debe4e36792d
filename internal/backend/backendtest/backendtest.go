// Package backendtest is the reusable conformance suite every Backend
// implementation must pass. It pins the behavioral contract the tuning core
// relies on — the clock semantics of the four observation surfaces, typed
// configuration rejection, idempotent index-creation cost accounting, clock
// monotonicity, replica isolation, and plan-cache coherence.
// The suite runs on a TPC-H 1GB Postgres spec; register a backend and run
// Run against its Open function, as internal/backend's conformance test does
// for every registered backend.
package backendtest

import (
	"errors"
	"math"
	"testing"

	"lambdatune/internal/backend"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
	"lambdatune/internal/workload"
)

// Factory opens a fresh backend under test on the given spec.
type Factory func(spec backend.Spec) (backend.Backend, error)

// Spec returns the specification the suite tests against.
func Spec() backend.Spec {
	return backend.Spec{
		Flavor:   engine.Postgres,
		Catalog:  workload.TPCH(1).Catalog,
		Hardware: engine.DefaultHardware,
	}
}

// open builds a fresh backend or fails the test.
func open(t *testing.T, f Factory) backend.Backend {
	t.Helper()
	b, err := f(Spec())
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	if b == nil {
		t.Fatal("factory returned a nil backend")
	}
	return b
}

// Run executes the full conformance suite against backends produced by f.
// Each subtest gets a fresh instance.
func Run(t *testing.T, f Factory) {
	t.Run("Identity", func(t *testing.T) { testIdentity(t, f) })
	t.Run("ConfigAcceptance", func(t *testing.T) { testConfigAcceptance(t, f) })
	t.Run("ConfigRejection", func(t *testing.T) { testConfigRejection(t, f) })
	t.Run("TimeoutSemantics", func(t *testing.T) { testTimeoutSemantics(t, f) })
	t.Run("IndexCostAccounting", func(t *testing.T) { testIndexCostAccounting(t, f) })
	t.Run("ExplainSurface", func(t *testing.T) { testExplainSurface(t, f) })
	t.Run("ClockMonotonicity", func(t *testing.T) { testClockMonotonicity(t, f) })
	t.Run("SnapshotIsolation", func(t *testing.T) { testSnapshotIsolation(t, f) })
	t.Run("PlanCacheCoherence", func(t *testing.T) { testPlanCacheCoherence(t, f) })
	t.Run("InstrumentedMonotonicity", func(t *testing.T) { testInstrumentedMonotonicity(t, f) })
}

// queries returns the suite's workload.
func queries(t *testing.T) []*engine.Query {
	t.Helper()
	w := workload.TPCH(1)
	if len(w.Queries) < 3 {
		t.Fatal("TPC-H workload too small for the suite")
	}
	return w.Queries
}

// testIdentity: the accessors must agree with the spec and never return nil.
func testIdentity(t *testing.T, f Factory) {
	b := open(t, f)
	spec := Spec()
	if b.Flavor() != spec.Flavor {
		t.Errorf("Flavor() = %v, want %v", b.Flavor(), spec.Flavor)
	}
	if b.Catalog() == nil {
		t.Fatal("Catalog() returned nil")
	}
	if b.Catalog().Name != spec.Catalog.Name {
		t.Errorf("Catalog().Name = %q, want %q", b.Catalog().Name, spec.Catalog.Name)
	}
	if hw := b.Hardware(); hw.MemoryBytes <= 0 || hw.Cores <= 0 {
		t.Errorf("Hardware() = %+v, want positive memory and cores", hw)
	}
	if b.Clock() == nil {
		t.Fatal("Clock() returned nil")
	}
}

// testConfigAcceptance: a valid configuration is accepted without advancing
// the clock (configuration changes are metadata-only on every backend we
// model), and it measurably changes what the backend reports.
func testConfigAcceptance(t *testing.T, f Factory) {
	b := open(t, f)
	qs := queries(t)
	before := b.WorkloadSeconds(qs)
	c0 := b.Clock().Now()
	cfg := &engine.Config{ID: "tuned", Params: map[string]string{
		"shared_buffers":       "15GB",
		"work_mem":             "1GB",
		"effective_cache_size": "45GB",
	}}
	if err := b.ApplyConfig(cfg); err != nil {
		t.Fatalf("ApplyConfig(valid) = %v", err)
	}
	if got := b.Clock().Now(); got != c0 {
		t.Errorf("ApplyConfig advanced the clock by %v", got-c0)
	}
	if after := b.WorkloadSeconds(qs); after == before {
		t.Error("ApplyConfig had no observable effect on workload time")
	}
	// Re-applying the empty configuration restores defaults.
	if err := b.ApplyConfig(&engine.Config{ID: "reset"}); err != nil {
		t.Fatalf("ApplyConfig(empty) = %v", err)
	}
	if got := b.WorkloadSeconds(qs); got != before {
		t.Errorf("empty config: workload time %v, want default %v", got, before)
	}
}

// testConfigRejection: bad parameter values and unknown parameters are
// refused with an error wrapping *engine.ConfigRejectedError, the clock does
// not advance, and the backend stays usable.
func testConfigRejection(t *testing.T, f Factory) {
	b := open(t, f)
	bad := []*engine.Config{
		{ID: "bad-value", Params: map[string]string{"work_mem": "banana"}},
		{ID: "unknown-param", Params: map[string]string{"no_such_parameter": "1"}},
	}
	for _, cfg := range bad {
		c0 := b.Clock().Now()
		err := b.ApplyConfig(cfg)
		if err == nil {
			t.Fatalf("ApplyConfig(%s) accepted an invalid configuration", cfg.ID)
		}
		var rej *engine.ConfigRejectedError
		if !errors.As(err, &rej) {
			t.Errorf("ApplyConfig(%s) error %v does not wrap *engine.ConfigRejectedError", cfg.ID, err)
		}
		if got := b.Clock().Now(); got != c0 {
			t.Errorf("rejected ApplyConfig(%s) advanced the clock by %v", cfg.ID, got-c0)
		}
	}
	if err := b.ApplyConfig(&engine.Config{ID: "ok", Params: map[string]string{"work_mem": "256MB"}}); err != nil {
		t.Fatalf("backend unusable after rejection: %v", err)
	}
}

// near compares two durations with a tiny relative tolerance — clock reads
// are sums of float64 advances, so deltas can differ from the charged time in
// the last bits.
func near(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// testTimeoutSemantics: RunQuery charges the full runtime on completion and
// exactly the timeout on interruption; QuerySeconds never advances the clock.
func testTimeoutSemantics(t *testing.T, f Factory) {
	b := open(t, f)
	q := queries(t)[0]

	c0 := b.Clock().Now()
	full := b.QuerySeconds(q)
	if full <= 0 {
		t.Fatalf("QuerySeconds = %v, want > 0", full)
	}
	if got := b.Clock().Now(); got != c0 {
		t.Fatalf("QuerySeconds advanced the clock by %v", got-c0)
	}

	// No timeout: completes and charges the full runtime.
	res := b.RunQuery(q, math.Inf(1))
	if !res.Complete || res.Seconds != full {
		t.Errorf("RunQuery(inf) = {%v %v}, want complete in %v", res.Complete, res.Seconds, full)
	}
	if got := b.Clock().Now() - c0; !near(got, full) {
		t.Errorf("RunQuery(inf) advanced the clock by %v, want %v", got, full)
	}

	// Generous timeout: still completes.
	if res := b.RunQuery(q, full*2); !res.Complete {
		t.Error("RunQuery with timeout > runtime did not complete")
	}

	// Tight timeout: interrupted, charged exactly the timeout.
	c1 := b.Clock().Now()
	res = b.RunQuery(q, full/2)
	if res.Complete {
		t.Error("RunQuery with timeout < runtime completed")
	}
	if res.Seconds != full/2 {
		t.Errorf("interrupted RunQuery charged %v, want the timeout %v", res.Seconds, full/2)
	}
	if got := b.Clock().Now() - c1; !near(got, full/2) {
		t.Errorf("interrupted RunQuery advanced the clock by %v, want %v", got, full/2)
	}
}

// testIndexCostAccounting: CreateIndex charges the estimated creation time
// once, is idempotent and free on re-creation, and transient vs permanent
// index lifetimes follow DropTransientIndexes.
func testIndexCostAccounting(t *testing.T, f Factory) {
	b := open(t, f)
	tables := b.Catalog().Tables()
	if len(tables) == 0 {
		t.Fatal("catalog has no tables")
	}
	tab := tables[0]
	if len(tab.Columns) < 2 {
		t.Fatal("first table has too few columns for the suite")
	}
	def := engine.IndexDef{Table: tab.Name, Columns: tab.Columns[0].Name}

	est := b.IndexCreationSeconds(def)
	if est <= 0 {
		t.Fatalf("IndexCreationSeconds = %v, want > 0", est)
	}
	c0 := b.Clock().Now()
	secs := b.CreateIndex(def)
	if secs != est {
		t.Errorf("CreateIndex charged %v, want the estimate %v", secs, est)
	}
	if got := b.Clock().Now() - c0; !near(got, secs) {
		t.Errorf("CreateIndex advanced the clock by %v, want %v", got, secs)
	}
	if !b.HasIndex(def) {
		t.Fatal("index missing after CreateIndex")
	}
	// Idempotent re-creation is free.
	c1 := b.Clock().Now()
	if again := b.CreateIndex(def); again != 0 {
		t.Errorf("re-creating an existing index charged %v, want 0", again)
	}
	if got := b.Clock().Now(); got != c1 {
		t.Errorf("idempotent CreateIndex advanced the clock by %v", got-c1)
	}
	// Transient indexes vanish, permanent ones survive.
	perm := engine.IndexDef{Table: tab.Name, Columns: tab.Columns[len(tab.Columns)-1].Name}
	if perm.Key() == def.Key() {
		t.Fatalf("suite needs two distinct columns on %s", tab.Name)
	}
	b.CreatePermanentIndex(perm)
	b.DropTransientIndexes()
	if b.HasIndex(def) {
		t.Error("transient index survived DropTransientIndexes")
	}
	if !b.HasIndex(perm) {
		t.Error("permanent index did not survive DropTransientIndexes")
	}
	b.DropIndex(perm)
	if b.HasIndex(perm) {
		t.Error("DropIndex did not remove a permanent index")
	}
	if n := len(b.Indexes()); n != 0 {
		t.Errorf("Indexes() reports %d entries on an empty instance", n)
	}
}

// testExplainSurface: Explain yields join costs for a join query and
// PlanCost a positive total estimate; neither advances the clock.
func testExplainSurface(t *testing.T, f Factory) {
	b := open(t, f)
	qs := queries(t)
	c0 := b.Clock().Now()
	var sawJoin bool
	for _, q := range qs {
		for _, jc := range b.Explain(q) {
			sawJoin = true
			if jc.EstCost < 0 {
				t.Errorf("%s: negative join cost %v", q.Name, jc.EstCost)
			}
		}
		if cost := b.PlanCost(q); cost <= 0 {
			t.Errorf("%s: PlanCost = %v, want > 0", q.Name, cost)
		}
	}
	if !sawJoin {
		t.Error("Explain returned no join costs for the whole workload")
	}
	if got := b.Clock().Now(); got != c0 {
		t.Errorf("Explain/PlanCost advanced the clock by %v", got-c0)
	}
}

// testClockMonotonicity: a mixed operation sequence never rewinds the clock.
func testClockMonotonicity(t *testing.T, f Factory) {
	b := open(t, f)
	qs := queries(t)
	last := b.Clock().Now()
	check := func(op string) {
		t.Helper()
		now := b.Clock().Now()
		if now < last {
			t.Fatalf("%s rewound the clock: %v -> %v", op, last, now)
		}
		last = now
	}
	for i, q := range qs {
		b.RunQuery(q, math.Inf(1))
		check("RunQuery")
		if i%2 == 0 {
			b.ApplyConfig(&engine.Config{ID: "mono", Params: map[string]string{"work_mem": "512MB"}})
			check("ApplyConfig")
		}
		b.Explain(q)
		check("Explain")
	}
	tab := b.Catalog().Tables()[0]
	b.CreateIndex(engine.IndexDef{Table: tab.Name, Columns: tab.Columns[0].Name})
	check("CreateIndex")
	b.DropTransientIndexes()
	check("DropTransientIndexes")
}

// executionCounter is implemented by backends that count completed query
// executions (the simulator and the instrumented decorator over it).
type executionCounter interface{ Executions() int }

// statsReporter is implemented by backends that report per-surface
// observation statistics into a metrics registry (the instrumented
// decorator), as the backend_<surface>_* series.
type statsReporter interface{ Registry() *obs.Registry }

// surfaceNames are the four observation surfaces as the backend_<surface>_*
// series name them.
var surfaceNames = []string{"apply_config", "create_index", "run_query", "explain"}

// testSnapshotIsolation: replicas must be isolated — their clocks,
// configurations and index sets evolve independently, and whatever a replica
// plans or caches leaves the parent's measurements exactly as they were —
// and AbsorbSnapshot folds execution counters back into the parent when the
// backend counts executions.
func testSnapshotIsolation(t *testing.T, f Factory) {
	b := open(t, f)
	qs := queries(t)
	q := qs[0]
	c0 := b.Clock().Now()
	parentBefore := b.WorkloadSeconds(qs)

	snap := b.Snapshot()
	if snap == nil {
		t.Fatal("Snapshot returned nil")
	}
	if snap.Clock().Now() != c0 {
		t.Fatalf("snapshot clock starts at %v, want parent's %v", snap.Clock().Now(), c0)
	}

	// Work on the replica: parent must not observe any of it.
	snap.RunQuery(q, math.Inf(1))
	tab := snap.Catalog().Tables()[0]
	def := engine.IndexDef{Table: tab.Name, Columns: tab.Columns[0].Name}
	snap.CreateIndex(def)
	if err := snap.ApplyConfig(&engine.Config{ID: "replica", Params: map[string]string{"work_mem": "2GB"}}); err != nil {
		t.Fatalf("ApplyConfig on snapshot: %v", err)
	}
	if got := b.Clock().Now(); got != c0 {
		t.Errorf("replica work advanced the parent clock by %v", got-c0)
	}
	if b.HasIndex(def) {
		t.Error("replica index leaked into the parent")
	}
	if snap.Clock().Now() <= c0 {
		t.Error("replica clock did not advance under replica work")
	}
	snap.WorkloadSeconds(qs)
	if got := b.WorkloadSeconds(qs); got != parentBefore {
		t.Errorf("replica work moved the parent's workload seconds from %v to %v", parentBefore, got)
	}

	// Parent work must not leak into the replica either.
	parentTime := snap.WorkloadSeconds(qs)
	if err := b.ApplyConfig(&engine.Config{ID: "parent", Params: map[string]string{"shared_buffers": "15GB"}}); err != nil {
		t.Fatalf("ApplyConfig on parent: %v", err)
	}
	if got := snap.WorkloadSeconds(qs); got != parentTime {
		t.Error("parent reconfiguration changed the replica's measurements")
	}

	// Counter folding, when the backend counts executions.
	if ec, counts := b.(executionCounter); counts {
		before := ec.Executions()
		b.AbsorbSnapshot(snap)
		if got := ec.Executions(); got != before+1 {
			t.Errorf("AbsorbSnapshot: parent executions %d, want %d", got, before+1)
		}
	} else {
		b.AbsorbSnapshot(snap)
	}
}

// testInstrumentedMonotonicity: when the backend reports per-surface
// statistics, each observation-surface call must monotonically increase that
// surface's call counter (and only that surface's), errors must count against
// the erroring surface, and the virtual-time series must absorb exactly the
// time the call charged to the clock.
func testInstrumentedMonotonicity(t *testing.T, f Factory) {
	b := open(t, f)
	ins, ok := b.(statsReporter)
	if !ok {
		t.Skip("backend reports no per-surface statistics")
	}
	qs := queries(t)
	q := qs[0]

	// step runs op and asserts exactly the named surface's counters moved.
	step := func(name string, wantErr bool, op func()) {
		t.Helper()
		before := ins.Registry().Snapshot()
		op()
		after := ins.Registry().Snapshot()
		for _, sf := range surfaceNames {
			p := "backend_" + sf + "_"
			calls, prev := after[p+"calls_total"], before[p+"calls_total"]
			if sf != name {
				if calls != prev {
					t.Errorf("%s call moved %s's counter: %v -> %v", name, sf, prev, calls)
				}
				continue
			}
			if calls != prev+1 {
				t.Errorf("%s: calls %v -> %v, want +1", name, prev, calls)
			}
			wantErrs := before[p+"errors_total"]
			if wantErr {
				wantErrs++
			}
			if got := after[p+"errors_total"]; got != wantErrs {
				t.Errorf("%s: errors %v -> %v, want %v", name, before[p+"errors_total"], got, wantErrs)
			}
			if after[p+"virtual_seconds_count"] != before[p+"virtual_seconds_count"]+1 {
				t.Errorf("%s: virtual-time histogram count did not advance with the call", name)
			}
		}
	}

	step("run_query", false, func() { b.RunQuery(q, math.Inf(1)) })
	// An interrupted query is an error on the run_query surface.
	step("run_query", true, func() { b.RunQuery(q, b.QuerySeconds(q)/2) })
	step("apply_config", false, func() {
		if err := b.ApplyConfig(&engine.Config{ID: "ok", Params: map[string]string{"work_mem": "256MB"}}); err != nil {
			t.Fatalf("ApplyConfig: %v", err)
		}
	})
	step("apply_config", true, func() {
		if err := b.ApplyConfig(&engine.Config{ID: "bad", Params: map[string]string{"work_mem": "banana"}}); err == nil {
			t.Fatal("invalid ApplyConfig accepted")
		}
	})
	tab := b.Catalog().Tables()[0]
	def := engine.IndexDef{Table: tab.Name, Columns: tab.Columns[0].Name}
	c0 := b.Clock().Now()
	var charged float64
	step("create_index", false, func() { charged = b.CreateIndex(def) })
	step("explain", false, func() { b.Explain(q) })

	// The virtual-time series absorb exactly what the call charged.
	st := ins.Registry().Snapshot()
	if got := b.Clock().Now() - c0; !near(got, charged) {
		t.Errorf("CreateIndex charged %v but the clock moved %v", charged, got)
	}
	for _, name := range []string{"backend_create_index_virtual_seconds_total", "backend_create_index_virtual_seconds_sum"} {
		if !near(st[name], charged) {
			t.Errorf("%s = %v, want the charged %v", name, st[name], charged)
		}
	}
}

// testPlanCacheCoherence: a backend may memoize plans per configuration, but
// memoization must never be observable in the measurements — repeat
// measurements are self-consistent, and configuration or index mutations
// never serve stale plans. With a live cache, the plan-cache counters must
// follow the invalidation rules: identical re-measurement hits, a settings
// change misses.
func testPlanCacheCoherence(t *testing.T, f Factory) {
	b := open(t, f)
	qs := queries(t)

	w0 := b.WorkloadSeconds(qs)
	if again := b.WorkloadSeconds(qs); again != w0 {
		t.Fatalf("repeat measurement drifted: %v then %v", w0, again)
	}

	// A settings change must change what is measured (no stale plans) and
	// re-applying the identical configuration must reproduce it exactly.
	cfgA := &engine.Config{ID: "tuned", Params: map[string]string{
		"shared_buffers":       "15GB",
		"work_mem":             "1GB",
		"effective_cache_size": "45GB",
	}}
	if err := b.ApplyConfig(cfgA); err != nil {
		t.Fatalf("ApplyConfig: %v", err)
	}
	wA := b.WorkloadSeconds(qs)
	if wA == w0 {
		t.Error("settings change had no effect on measurements")
	}
	if err := b.ApplyConfig(cfgA); err != nil {
		t.Fatalf("re-ApplyConfig: %v", err)
	}
	if got := b.WorkloadSeconds(qs); got != wA {
		t.Errorf("identical re-application changed measurements: %v, want %v", got, wA)
	}

	// Index churn: creating and dropping an index must leave measurements
	// exactly where they were — cached indexed-era plans must not survive
	// DropTransientIndexes.
	tab := b.Catalog().Tables()[0]
	def := engine.IndexDef{Table: tab.Name, Columns: tab.Columns[0].Name}
	b.CreateIndex(def)
	wI := b.WorkloadSeconds(qs)
	if again := b.WorkloadSeconds(qs); again != wI {
		t.Errorf("repeat measurement under index drifted: %v then %v", wI, again)
	}
	b.DropTransientIndexes()
	if got := b.WorkloadSeconds(qs); got != wA {
		t.Errorf("stale plan after DropTransientIndexes: %v, want %v", got, wA)
	}
	if err := b.ApplyConfig(&engine.Config{ID: "reset"}); err != nil {
		t.Fatalf("ApplyConfig(reset): %v", err)
	}
	if got := b.WorkloadSeconds(qs); got != w0 {
		t.Errorf("reset did not restore default measurements: %v, want %v", got, w0)
	}

	// Telemetry contract, whenever the cache is on (the default).
	if !b.PlanCacheEnabled() {
		return
	}
	// Identical re-measurement must be served from the cache.
	before := b.PlanCacheStats()
	b.WorkloadSeconds(qs)
	after := b.PlanCacheStats()
	if after.Hits <= before.Hits {
		t.Errorf("identical re-measurement added no cache hits: %+v -> %+v", before, after)
	}
	if after.Misses != before.Misses {
		t.Errorf("identical re-measurement missed the cache: %+v -> %+v", before, after)
	}
	// A settings change must invalidate: the next measurement re-plans.
	if err := b.ApplyConfig(&engine.Config{ID: "shift", Params: map[string]string{"work_mem": "3GB"}}); err != nil {
		t.Fatalf("ApplyConfig(shift): %v", err)
	}
	mid := b.PlanCacheStats()
	b.QuerySeconds(qs[0])
	end := b.PlanCacheStats()
	if end.Misses <= mid.Misses {
		t.Errorf("settings change did not invalidate the plan cache: %+v -> %+v", mid, end)
	}
}
