package lambdatune

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"lambdatune/internal/obs"
)

// tuneTelemetry runs one tuning run on a fresh tpch-1 copy with full
// telemetry (trace + metrics + instrumented backend) at the given worker
// count, returning the result and the run's telemetry handles.
func tuneTelemetry(t *testing.T, parallelism int) (*Result, *Trace, *Metrics) {
	t.Helper()
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	db.Instrument()
	opts := DefaultOptions()
	opts.Evaluation.Parallelism = parallelism
	opts.Observability.Trace = NewTrace()
	opts.Observability.Metrics = NewMetrics()
	res, err := db.Tune(w, NewSimulatedLLM(1), opts)
	if err != nil {
		t.Fatalf("parallelism=%d: %v", parallelism, err)
	}
	return res, opts.Observability.Trace, opts.Observability.Metrics
}

// TestTelemetryUnderParallelEvaluation exercises the instrumented backend and
// the metrics registry under Pool concurrency (Parallelism=4): four workers
// observe surfaces and bump counters concurrently, which the -race run of
// this test validates, and the selection outcome must be byte-identical to an
// untraced run.
func TestTelemetryUnderParallelEvaluation(t *testing.T) {
	res, trace, metrics := tuneTelemetry(t, 4)

	// Selection must be unaffected by telemetry.
	db, w, err := Benchmark("tpch-1", Postgres)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Evaluation.Parallelism = 4
	plain, err := db.Tune(w, NewSimulatedLLM(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScript != plain.BestScript || res.BestSeconds != plain.BestSeconds ||
		res.TuningSeconds != plain.TuningSeconds {
		t.Errorf("telemetry changed the outcome: %v/%v vs %v/%v",
			res.BestSeconds, res.TuningSeconds, plain.BestSeconds, plain.TuningSeconds)
	}

	if trace.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if got := strings.Count(buf.String(), "\n"); got != trace.Len() {
		t.Errorf("JSONL export has %d lines, want %d", got, trace.Len())
	}

	snap := metrics.Snapshot()
	for _, name := range []string{
		"tuner_rounds_total", "tuner_queries_total", "tuner_index_builds_total",
		"backend_run_query_calls_total", "backend_apply_config_calls_total",
		"backend_plan_cache_hits", "backend_plan_cache_misses",
	} {
		if snap[name] <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, snap[name])
		}
	}
	var prom bytes.Buffer
	if err := metrics.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(prom.String(), "tuner_queries_total") {
		t.Error("Prometheus exposition is missing tuner_queries_total")
	}

	if res.Telemetry == nil {
		t.Fatal("Result.Telemetry is nil on a traced run")
	}
	if res.Telemetry.Spans != trace.Len() {
		t.Errorf("Telemetry.Spans = %d, want %d", res.Telemetry.Spans, trace.Len())
	}
	if len(res.Telemetry.Phases) == 0 || res.Telemetry.Metrics == nil {
		t.Errorf("Telemetry incomplete: %+v", res.Telemetry)
	}
	if !strings.Contains(trace.SummaryTable(), "eval") {
		t.Error("SummaryTable has no eval phase row")
	}
}

// TestTelemetryDeterministicAcrossRuns: two identical traced runs export
// byte-identical JSONL modulo the wall-clock annotation fields, pinned via
// the per-phase summary (virtual costs and span counts only).
func TestTelemetryDeterministicAcrossRuns(t *testing.T) {
	for _, p := range []int{1, 4} {
		_, tr1, _ := tuneTelemetry(t, p)
		_, tr2, _ := tuneTelemetry(t, p)
		if a, b := tr1.Len(), tr2.Len(); a != b {
			t.Errorf("parallelism=%d: span counts differ: %d vs %d", p, a, b)
		}
		sum1 := summaryNoWall(tr1.SummaryTable())
		sum2 := summaryNoWall(tr2.SummaryTable())
		if sum1 != sum2 {
			t.Errorf("parallelism=%d: summaries differ:\n%s\nvs\n%s", p, sum1, sum2)
		}
	}
}

// TestTelemetryPhaseTotalsRepeatable: identical runs at Parallelism 4 report
// bit-identical Telemetry phase totals. Parallel evaluation workers
// interleave span creation, so totals summed in creation order move in their
// last bits between repeats of most of these scenarios; summed in the
// export's depth-first order they cannot. Wall seconds are host readings and
// stay out of the comparison.
func TestTelemetryPhaseTotalsRepeatable(t *testing.T) {
	for _, bench := range []string{"tpch-1", "tpcds-1", "job"} {
		for seed := int64(1); seed <= 5; seed++ {
			var first *Telemetry
			for run := 0; run < 6; run++ {
				db, w, err := Benchmark(bench, Postgres)
				if err != nil {
					t.Fatal(err)
				}
				opts := DefaultOptions()
				opts.Seed = seed
				opts.Evaluation.Parallelism = 4
				opts.Observability.Trace = NewTrace()
				res, err := db.Tune(w, NewSimulatedLLM(seed), opts)
				if err != nil {
					t.Fatalf("%s seed %d: %v", bench, seed, err)
				}
				if first == nil {
					first = res.Telemetry
					continue
				}
				if got := phaseTotals(res.Telemetry); got != phaseTotals(first) {
					t.Fatalf("%s seed %d, run %d: phase totals moved:\n got  %s\n want %s",
						bench, seed, run+1, got, phaseTotals(first))
				}
			}
		}
	}
}

// phaseTotals renders a summary's deterministic part, floats as their bits.
func phaseTotals(tel *Telemetry) string {
	s := fmt.Sprintf("spans=%d events=%d", tel.Spans, tel.Events)
	for _, p := range tel.Phases {
		s += fmt.Sprintf(" %s:%d:%#x", p.Phase, p.Spans, math.Float64bits(p.VirtSeconds))
	}
	return s
}

// summaryNoWall strips the trailing wall-ms column, the only nondeterministic
// part of a summary table.
func summaryNoWall(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if i := strings.LastIndex(line, "   "); i > 0 && strings.Contains(line, ".") {
			line = strings.TrimRight(line[:i], " ")
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestRuntimeTelemetryStream runs a JOB stream of the E16 mix — half the
// jobs from a hot tenant at weight 4, 30% from four warm tenants, the rest
// cold singletons — on one shared Runtime with every telemetry sink live: a
// metrics registry, an Info-level JSON logger and one Trace per job. Four
// workers share four evaluation slots over a 16-entry memo, so slot waits
// and evictions are real. Telemetry must stay passive (every result equals
// its isolated run) and real (every trace is schema-valid and the runtime
// series accumulate).
func TestRuntimeTelemetryStream(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	type job struct {
		tenant string
		seed   int64
	}
	hot, warm := n/2, n*3/10
	var jobs []job
	for i := 0; i < n; i++ {
		switch {
		case i < hot:
			jobs = append(jobs, job{"hot", 1})
		case i < hot+warm:
			w := int64((i - hot) % 4)
			jobs = append(jobs, job{fmt.Sprintf("warm-%d", w), 2 + w})
		default:
			jobs = append(jobs, job{fmt.Sprintf("cold-%d", i), 1000 + int64(i)})
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	isolated := map[int64]string{}
	for _, j := range jobs {
		if _, ok := isolated[j.seed]; ok {
			continue
		}
		db, w, err := Benchmark("job", Postgres)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.Tune(w, NewSimulatedLLM(j.seed), runtimeOpts(j.seed, 2))
		if err != nil {
			t.Fatal(err)
		}
		isolated[j.seed] = resultKey(ref)
	}

	metrics := NewMetrics()
	rt := NewRuntime(RuntimeOptions{
		EvalSlots:     4,
		TenantWeights: map[string]int{"hot": 4},
		MemoCapacity:  16,
		Metrics:       metrics,
		Logger:        slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	defer rt.Close()
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = runTracedJob(rt, jobs[i].tenant, jobs[i].seed, isolated[jobs[i].seed])
			}
		}()
	}
	for i := range jobs {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d (tenant %s, seed %d): %v", i, jobs[i].tenant, jobs[i].seed, err)
		}
	}

	snap := metrics.Snapshot()
	if got := snap["runtime_jobs_total"]; got != float64(n) {
		t.Errorf("runtime_jobs_total = %v, want %d", got, n)
	}
	waits := 0
	for name := range snap {
		if strings.HasPrefix(name, "slots_queue_wait_seconds_") {
			waits++
		}
	}
	if waits == 0 {
		t.Error("no slots_queue_wait_seconds_* series accumulated")
	}
	if snap["runtime_memo_evictions_total"] <= 0 {
		t.Errorf("a 16-entry memo evicted nothing over %d jobs (%d distinct seeds)", n, len(isolated))
	}
}

// runTracedJob tunes one traced job on rt and checks it against its isolated
// result and the span schema.
func runTracedJob(rt *Runtime, tenant string, seed int64, want string) error {
	db, w, err := rt.Benchmark("job", Postgres)
	if err != nil {
		return err
	}
	opts := runtimeOpts(seed, 2)
	opts.Tenant = tenant
	opts.Observability.Trace = NewTrace()
	res, err := rt.TuneContext(context.Background(), db, w, NewSimulatedLLM(seed), opts)
	if err != nil {
		return err
	}
	if got := resultKey(res); got != want {
		return fmt.Errorf("diverged from its isolated run:\n got %s\nwant %s", got, want)
	}
	if err := obs.ValidateRecords(opts.Observability.Trace.Tracer().Records()); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	return nil
}
