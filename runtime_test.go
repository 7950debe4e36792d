package lambdatune

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// runtimeOpts builds the standard test options: paper defaults, fixed seed,
// explicit parallelism.
func runtimeOpts(seed int64, parallelism int) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Evaluation.Parallelism = parallelism
	return opts
}

// resultKey condenses the deterministic outcome of a run — everything the
// golden contract pins. Wall-clock fields are deliberately excluded.
func resultKey(r *Result) string {
	return fmt.Sprintf("best=%q bestSeconds=%.17g defaultSeconds=%.17g tuningSeconds=%.17g candidates=%d",
		r.BestScript, r.BestSeconds, r.DefaultSeconds, r.TuningSeconds, r.Candidates)
}

// TestRuntimeGoldenSharedVsStandalone is the tentpole's determinism
// contract: the golden E1 run (tpch-1 / Postgres / seed 1) selects a
// byte-identical configuration at Parallelism 1 and 4, whether run
// standalone or on a shared Runtime concurrently with another job.
func TestRuntimeGoldenSharedVsStandalone(t *testing.T) {
	for _, p := range []int{1, 4} {
		// Standalone reference run.
		db, w, err := Benchmark("tpch-1", Postgres)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.Tune(w, NewSimulatedLLM(1), runtimeOpts(1, p))
		if err != nil {
			t.Fatal(err)
		}

		// Second reference with another seed (the concurrent "other job").
		db2, w2, err := Benchmark("tpch-1", Postgres)
		if err != nil {
			t.Fatal(err)
		}
		ref2, err := db2.Tune(w2, NewSimulatedLLM(7), runtimeOpts(7, p))
		if err != nil {
			t.Fatal(err)
		}

		// Shared runtime: both jobs run concurrently, with a slot gate
		// tighter than the combined worker count to exercise contention.
		rt := NewRuntime(RuntimeOptions{EvalSlots: 2})
		defer rt.Close()
		var (
			wg         sync.WaitGroup
			got, got2  *Result
			err1, err2 error
		)
		run := func(seed int64, tenant string, out **Result, errOut *error) {
			defer wg.Done()
			jdb, jw, berr := rt.Benchmark("tpch-1", Postgres)
			if berr != nil {
				*errOut = berr
				return
			}
			o := runtimeOpts(seed, p)
			o.Tenant = tenant
			*out, *errOut = rt.TuneContext(context.Background(), jdb, jw, NewSimulatedLLM(seed), o)
		}
		wg.Add(2)
		go run(1, "alpha", &got, &err1)
		go run(7, "beta", &got2, &err2)
		wg.Wait()
		if err1 != nil || err2 != nil {
			t.Fatalf("p=%d: shared runs failed: %v / %v", p, err1, err2)
		}
		if resultKey(got) != resultKey(ref) {
			t.Errorf("p=%d: shared-runtime result diverged from standalone:\n got %s\nwant %s",
				p, resultKey(got), resultKey(ref))
		}
		if resultKey(got2) != resultKey(ref2) {
			t.Errorf("p=%d: co-tenant job diverged from its standalone run:\n got %s\nwant %s",
				p, resultKey(got2), resultKey(ref2))
		}
	}
}

// TestRuntimeCrossJobMemoReuse asserts that identical jobs on one runtime
// hit each other's memo entries while producing byte-identical results: a
// second job after the first, and four jobs at once on a four-slot gate,
// one tenant each, whose cross-job hit rate must clear one half (E15's bar).
func TestRuntimeCrossJobMemoReuse(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		rt := NewRuntime(RuntimeOptions{})
		defer rt.Close()
		var last *Result
		for i := 0; i < 2; i++ {
			db, w, err := rt.Benchmark("tpch-1", Postgres)
			if err != nil {
				t.Fatal(err)
			}
			o := runtimeOpts(1, 2)
			o.Tenant = fmt.Sprintf("tenant-%d", i)
			res, err := rt.TuneContext(context.Background(), db, w, NewSimulatedLLM(1), o)
			if err != nil {
				t.Fatal(err)
			}
			if last != nil && resultKey(res) != resultKey(last) {
				t.Fatalf("job %d diverged:\n got %s\nwant %s", i, resultKey(res), resultKey(last))
			}
			last = res
		}
		st := rt.Stats()
		if st.Jobs != 2 || st.Namespaces != 1 {
			t.Fatalf("stats: jobs=%d namespaces=%d, want 2/1", st.Jobs, st.Namespaces)
		}
		if st.MemoCrossJobHits == 0 {
			t.Fatalf("expected cross-job memo hits, got stats %+v", st)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		db, w, err := Benchmark("tpch-1", Postgres)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.Tune(w, NewSimulatedLLM(1), runtimeOpts(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRuntime(RuntimeOptions{EvalSlots: 4})
		defer rt.Close()
		results := make([]*Result, 4)
		errs := make([]error, len(results))
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				jdb, jw, err := rt.Benchmark("tpch-1", Postgres)
				if err != nil {
					errs[i] = err
					return
				}
				o := runtimeOpts(1, 2)
				o.Tenant = fmt.Sprintf("tenant-%d", i)
				results[i], errs[i] = rt.TuneContext(context.Background(), jdb, jw, NewSimulatedLLM(1), o)
			}()
		}
		wg.Wait()
		for i, res := range results {
			if errs[i] != nil {
				t.Fatalf("job %d: %v", i, errs[i])
			}
			if resultKey(res) != resultKey(ref) {
				t.Errorf("job %d diverged from its isolated run:\n got %s\nwant %s", i, resultKey(res), resultKey(ref))
			}
		}
		if st := rt.Stats(); st.CrossJobHitRate() <= 0.5 {
			t.Errorf("cross-job hit rate %.3f over %d identical jobs, want > 0.5: %+v", st.CrossJobHitRate(), len(results), st)
		}
	})
}

// TestRuntimeBoundedMemoChurn runs a hot/cold job stream on a runtime whose
// memo is far smaller than the stream's working set: every job must still
// match its standalone run, the segmented LRU must evict, and hits must land
// on entries it kept resident.
func TestRuntimeBoundedMemoChurn(t *testing.T) {
	seeds := []int64{1, 1, 2, 1, 3, 1, 4, 1, 5, 1}
	want := map[int64]string{}
	for _, seed := range seeds {
		if _, ok := want[seed]; ok {
			continue
		}
		db, w, err := Benchmark("tpch-1", Postgres)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.Tune(w, NewSimulatedLLM(seed), runtimeOpts(seed, 2))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = resultKey(ref)
	}

	rt := NewRuntime(RuntimeOptions{MemoCapacity: 8})
	defer rt.Close()
	for i, seed := range seeds {
		db, w, err := rt.Benchmark("tpch-1", Postgres)
		if err != nil {
			t.Fatal(err)
		}
		o := runtimeOpts(seed, 2)
		o.Tenant = fmt.Sprintf("tenant-%d", seed)
		res, err := rt.TuneContext(context.Background(), db, w, NewSimulatedLLM(seed), o)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultKey(res); got != want[seed] {
			t.Errorf("job %d (seed %d) diverged from its standalone run:\n got %s\nwant %s", i, seed, got, want[seed])
		}
	}
	st := rt.Stats()
	if st.MemoEvictions == 0 {
		t.Errorf("a memo of 8 entries evicted nothing over the stream: %+v", st)
	}
	if st.MemoHitRetention <= 0 {
		t.Errorf("no schedule-memo hit came from a protected entry: %+v", st)
	}
}

// TestPlanCacheEvictionsNeverExceedMisses runs a churning JOB job stream on
// one runtime, two jobs at a time at Parallelism 2: half the jobs on one
// seed, three in ten on eight recurring seeds and one in five on a fresh
// seed. Every job plans into its template's store, which builds a plan only
// on a miss and drops each plan at most once, so the store must evict, and
// never more plans than it built.
func TestPlanCacheEvictionsNeverExceedMisses(t *testing.T) {
	seed := func(i int) int64 {
		switch i % 10 {
		case 0, 1, 2, 3, 4:
			return 1
		case 5, 6, 7:
			return 100 + int64(i%8)
		default:
			return 1000 + int64(i)
		}
	}
	const jobs = 40
	rt := NewRuntime(RuntimeOptions{MemoCapacity: 256})
	defer rt.Close()
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < jobs; i += 2 {
				db, w, err := rt.Benchmark("job", Postgres)
				if err == nil {
					_, err = rt.Tune(db, w, NewSimulatedLLM(seed(i)), runtimeOpts(seed(i), 2))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	db, _, err := rt.Benchmark("job", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Evictions == 0 {
		t.Errorf("the template's store evicted nothing over %d jobs: %v", jobs, st)
	}
	if st.Evictions > st.Misses {
		t.Errorf("the template's store evicted %d plans but built only %d: %v", st.Evictions, st.Misses, st)
	}
}

// twoSchemaFixtures builds two deliberately different schemas that share
// query names — the worst case for cross-tenant memo leakage — plus a
// per-schema workload.
func twoSchemaFixtures(t *testing.T) (dbA, dbB *Database, wA, wB *Workload) {
	t.Helper()
	mk := func(rows int64, width int) *Database {
		db, err := NewDatabase(Postgres, "shop", []Table{
			{Name: "orders", Rows: rows, Columns: []Column{
				{Name: "id", WidthBytes: 8, Distinct: rows},
				{Name: "customer_id", WidthBytes: 8, Distinct: rows / 10},
				{Name: "total", WidthBytes: width, Distinct: 1000},
			}, PrimaryKey: []string{"id"}},
			{Name: "customers", Rows: rows / 10, Columns: []Column{
				{Name: "id", WidthBytes: 8, Distinct: rows / 10},
				{Name: "region", WidthBytes: 16, Distinct: 50},
			}, PrimaryKey: []string{"id"}},
		}, DefaultHardware)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	queries := map[string]string{
		"q1": "SELECT * FROM orders WHERE total > 100",
		"q2": "SELECT * FROM orders o JOIN customers c ON o.customer_id = c.id WHERE c.region = 'west'",
	}
	mkW := func() *Workload {
		w, err := ParseWorkload("shop", queries)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return mk(2_000_000, 8), mk(400_000, 64), mkW(), mkW()
}

// TestRuntimeNamespaceIsolation pins the isolation contract: two concurrent
// jobs over different schemas (same workload and query names) must land in
// distinct memo namespaces, never share entries, and match their isolated
// runs exactly.
func TestRuntimeNamespaceIsolation(t *testing.T) {
	dbA, dbB, wA, wB := twoSchemaFixtures(t)
	refA, err := dbA.Tune(wA, NewSimulatedLLM(1), runtimeOpts(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	refB, err := dbB.Tune(wB, NewSimulatedLLM(1), runtimeOpts(1, 2))
	if err != nil {
		t.Fatal(err)
	}

	dbA2, dbB2, wA2, wB2 := twoSchemaFixtures(t)
	rt := NewRuntime(RuntimeOptions{EvalSlots: 2})
	defer rt.Close()
	var (
		wg         sync.WaitGroup
		gotA, gotB *Result
		errA, errB error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		o := runtimeOpts(1, 2)
		o.Tenant = "tenant-a"
		gotA, errA = rt.TuneContext(context.Background(), dbA2, wA2, NewSimulatedLLM(1), o)
	}()
	go func() {
		defer wg.Done()
		o := runtimeOpts(1, 2)
		o.Tenant = "tenant-b"
		gotB, errB = rt.TuneContext(context.Background(), dbB2, wB2, NewSimulatedLLM(1), o)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("shared runs failed: %v / %v", errA, errB)
	}
	if resultKey(gotA) != resultKey(refA) {
		t.Errorf("tenant-a diverged from isolated run:\n got %s\nwant %s", resultKey(gotA), resultKey(refA))
	}
	if resultKey(gotB) != resultKey(refB) {
		t.Errorf("tenant-b diverged from isolated run:\n got %s\nwant %s", resultKey(gotB), resultKey(refB))
	}
	st := rt.Stats()
	if st.Namespaces != 2 {
		t.Errorf("expected 2 distinct memo namespaces for 2 schemas, got %d", st.Namespaces)
	}
	if st.MemoCrossJobHits != 0 {
		t.Errorf("cross-job hits across different schemas: %d (memo state leaked between namespaces)", st.MemoCrossJobHits)
	}
}

// failingClient always errors — a tenant whose model transport is down.
type failingClient struct{}

func (failingClient) Complete(context.Context, string) (string, error) {
	return "", errors.New("transport down")
}
func (failingClient) Name() string { return "down" }

// TestRuntimeTenantBreakerIsolation pins the breaker-isolation contract: one
// tenant's tripped LLM circuit breaker must not open another tenant's, and
// the healthy tenant's result must match its isolated run.
func TestRuntimeTenantBreakerIsolation(t *testing.T) {
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.Tune(w, NewSimulatedLLM(1), runtimeOpts(1, 1))
	if err != nil {
		t.Fatal(err)
	}

	rt := NewRuntime(RuntimeOptions{TenantBreakerThreshold: 1})
	defer rt.Close()
	var (
		wg            sync.WaitGroup
		okRes         *Result
		errBad, errOK error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		jdb, jw, berr := rt.Benchmark("tpch-1", Postgres)
		if berr != nil {
			errBad = berr
			return
		}
		o := runtimeOpts(1, 1)
		o.Tenant = "bad"
		_, errBad = rt.TuneContext(context.Background(), jdb, jw, failingClient{}, o)
	}()
	go func() {
		defer wg.Done()
		jdb, jw, berr := rt.Benchmark("tpch-1", Postgres)
		if berr != nil {
			errOK = berr
			return
		}
		o := runtimeOpts(1, 1)
		o.Tenant = "good"
		okRes, errOK = rt.TuneContext(context.Background(), jdb, jw, NewSimulatedLLM(1), o)
	}()
	wg.Wait()

	if !errors.Is(errBad, ErrNoUsableSample) {
		t.Fatalf("failing tenant: want ErrNoUsableSample, got %v", errBad)
	}
	if errOK != nil {
		t.Fatalf("healthy tenant failed: %v", errOK)
	}
	if resultKey(okRes) != resultKey(ref) {
		t.Errorf("healthy tenant diverged from isolated run:\n got %s\nwant %s", resultKey(okRes), resultKey(ref))
	}
	if !rt.gateway.BreakerOpen("bad") {
		t.Error("failing tenant's breaker should be open")
	}
	if rt.gateway.BreakerOpen("good") {
		t.Error("healthy tenant's breaker opened — breaker state leaked across tenants")
	}
	if trips := rt.gateway.Trips("good"); trips != 0 {
		t.Errorf("healthy tenant recorded %d breaker trips", trips)
	}
}

// TestRuntimeTenantMetricSuffix: the slot gate and the LLM gateway name a
// tenant's series by one rule (obs.MetricSuffix), so a tenant with upper-case
// letters lands under the same lowercase suffix on both.
func TestRuntimeTenantMetricSuffix(t *testing.T) {
	m := NewMetrics()
	rt := NewRuntime(RuntimeOptions{EvalSlots: 1, Metrics: m})
	defer rt.Close()
	db, w, err := rt.Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	o := runtimeOpts(1, 1)
	o.Tenant = "Acme-1"
	if _, err := rt.Tune(db, w, NewSimulatedLLM(1), o); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	for _, name := range []string{"slots_occupancy_acme_1", "tenant_gateway_calls_total_acme_1"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %s missing from the runtime registry", name)
		}
	}
}

// TestRuntimeClosed pins ErrRuntimeClosed on post-Close use.
func TestRuntimeClosed(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{})
	db, w, err := rt.Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Benchmark("tpch-1", Postgres); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("Benchmark after Close: want ErrRuntimeClosed, got %v", err)
	}
	if _, err := rt.Tune(db, w, NewSimulatedLLM(1), runtimeOpts(1, 1)); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("Tune after Close: want ErrRuntimeClosed, got %v", err)
	}
}
