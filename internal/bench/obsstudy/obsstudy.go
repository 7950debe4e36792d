// Package obsstudy implements E17 — the observability-overhead study.
//
// The telemetry plane this repo grew around the job daemon — per-job span
// tracing, the shared metrics registry, structured slog logging — is
// contractually passive: it may cost host wall time but can never move a
// virtual-clock outcome. E17 prices that contract on the E16 configuration:
// the same skewed thousand-job stream runs twice on a shared Runtime, once
// with every telemetry sink disconnected and once with all of them live (a
// metrics registry on the runtime, a per-job Trace, and an Info-level JSON
// slog logger), after an isolated baseline pass that pins the authoritative
// result for every distinct seed.
//
// The study pins three properties:
//
//  1. Determinism: every traced job's result is byte-identical to its
//     isolated run — telemetry observes the run, it never steers it.
//  2. Overhead: full telemetry costs < 5% wall time against the dark phase
//     (the acceptance bar for the observability plane), estimated as the
//     median over interleaved off/on pair ratios so host-throughput drift
//     and one-off noise bursts cancel instead of landing on one condition.
//  3. Integrity: the sampled traces (the daemon's own self-check cadence)
//     pass the span-schema validator, and
//     the registry actually accumulated the runtime_* / slots_* series the
//     daemon exposes on /metrics — the overhead being priced is real work.
//
// The package lives beside package bench because it exercises the public
// Runtime API and importing the root package from internal/bench would be a
// cycle.
package obsstudy

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lambdatune"
	"lambdatune/internal/obs"
)

// Jobs is the stream length of the full E17 study — the E16 configuration.
const Jobs = 1000

// Workers matches the E16 worker pool.
const Workers = 16

// evalSlots matches the E16 admission bound, so slot waits (and therefore the
// slots_queue_wait_seconds series the telemetry phase pays for) are real.
const evalSlots = 8

// memoCapacity matches E16: the stream overflows the memos, so the telemetry
// phase also pays for eviction accounting.
const memoCapacity = 256

const (
	hotTenant   = "hot"
	warmTenants = 8
	hotShare    = 0.5
	warmShare   = 0.3
)

// validateEvery samples the per-job trace schema check: the first traced job
// and every Nth after export their records through ValidateRecords. It
// matches the daemon's sampled post-completion self-check, so the telemetry
// phase prices exactly the deployment's per-job cost.
const validateEvery = 16

// job is one submission in the stream.
type job struct {
	tenant string
	seed   int64
}

// Phase aggregates one shared pass over the stream.
type Phase struct {
	// Telemetry is "off" (every sink disconnected) or "on" (registry +
	// per-job trace + Info-level JSON logging).
	Telemetry   string  `json:"telemetry"`
	WallSeconds float64 `json:"wall_seconds"`
	// CPUSeconds is the process CPU time (user + system) the phase consumed
	// — the interference-robust complement to wall time on a shared host
	// (0 where getrusage is unavailable).
	CPUSeconds float64 `json:"cpu_seconds"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	P50Ms      float64 `json:"p50_job_ms"`
	P99Ms      float64 `json:"p99_job_ms"`
	// Identical reports every job's result matched its isolated run.
	Identical bool `json:"identical_to_isolated"`
	// TotalSpans / TracesChecked / TracesValid cover the captured traces
	// (zero / zero / true for the dark phase, which captures none).
	// TracesChecked counts the sampled schema validations (see validateEvery).
	TotalSpans    int  `json:"total_spans"`
	TracesChecked int  `json:"traces_checked"`
	TracesValid   bool `json:"traces_valid"`
	// MetricsSeries is how many distinct series the registry accumulated by
	// the end of the phase (0 for the dark phase).
	MetricsSeries int `json:"metrics_series"`
}

// Study is the E17 artifact.
type Study struct {
	Benchmark string `json:"benchmark"`
	Jobs      int    `json:"jobs"`
	Workers   int    `json:"workers"`
	EvalSlots int    `json:"eval_slots"`
	Seed      int64  `json:"seed"`
	HotJobs   int    `json:"hot_jobs"`
	WarmJobs  int    `json:"warm_jobs"`
	ColdJobs  int    `json:"cold_jobs"`
	// IsolatedRuns is how many distinct seeds the baseline pass covered.
	IsolatedRuns        int     `json:"isolated_runs"`
	IsolatedWallSeconds float64 `json:"isolated_wall_seconds"`
	Off                 Phase   `json:"telemetry_off"`
	On                  Phase   `json:"telemetry_on"`
	// OffRepWallSeconds / OnRepWallSeconds record every interleaved
	// repetition's wall time (the phases above keep the fastest), so the
	// artifact shows the host-noise spread the estimator has to absorb.
	OffRepWallSeconds []float64 `json:"off_rep_wall_seconds"`
	OnRepWallSeconds  []float64 `json:"on_rep_wall_seconds"`
	// PairOverheadPcts is the per-pair wall overhead (on/off − 1, as a
	// percent) for each interleaved repetition pair, in rep order;
	// PairCPUOverheadPcts is the same ratio over process CPU time.
	PairOverheadPcts    []float64 `json:"pair_overhead_pcts"`
	PairCPUOverheadPcts []float64 `json:"pair_cpu_overhead_pcts"`
	// OverheadPct is the wall-time cost of full telemetry: the median of
	// the per-pair ratios. Each pair's two runs are adjacent in time, so
	// the ratio cancels the slow host-throughput drift a shared box shows
	// over a minutes-long study, and the median discards the odd pair that
	// lands on a noise burst — both failure modes a ratio of phase
	// minimums is exposed to (the floors can come from opposite ends of
	// the drift). Negative means telemetry measured faster (noise below
	// the measurement floor).
	OverheadPct float64 `json:"overhead_pct"`
	// The CI smoke booleans.
	OverheadWithin5Pct  bool `json:"overhead_within_5pct"`
	IdenticalToIsolated bool `json:"identical_to_isolated"`
	TracesValid         bool `json:"traces_valid"`
	MetricsPresent      bool `json:"metrics_present"`
}

// resultKey condenses a run's deterministic outcome for equality checks —
// the same fields E15/E16 pin.
func resultKey(r *lambdatune.Result) string {
	return fmt.Sprintf("best=%q bestSeconds=%.17g defaultSeconds=%.17g tuningSeconds=%.17g candidates=%d",
		r.BestScript, r.BestSeconds, r.DefaultSeconds, r.TuningSeconds, r.Candidates)
}

func jobOptions(seed int64, tenant string) lambdatune.Options {
	opts := lambdatune.DefaultOptions()
	opts.Seed = seed
	opts.Evaluation.Parallelism = 2
	opts.Tenant = tenant
	return opts
}

// stream builds the same deterministic job mix as E16: hot, warm, and cold
// jobs interleaved by a seeded shuffle.
func stream(seed int64, jobs int) (out []job, hot, warm, cold int) {
	hot = int(float64(jobs) * hotShare)
	warm = int(float64(jobs) * warmShare)
	cold = jobs - hot - warm
	for i := 0; i < hot; i++ {
		out = append(out, job{tenant: hotTenant, seed: seed})
	}
	for i := 0; i < warm; i++ {
		t := i % warmTenants
		out = append(out, job{tenant: fmt.Sprintf("warm-%d", t), seed: seed + 1 + int64(t)})
	}
	for i := 0; i < cold; i++ {
		out = append(out, job{tenant: fmt.Sprintf("cold-%d", i), seed: seed + 1000 + int64(i)})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, hot, warm, cold
}

// runShared executes the stream on one current-lifecycle shared Runtime. With
// telemetry on, the runtime carries a metrics registry and an Info-level JSON
// logger (sunk into io.Discard so the study prices the telemetry plane, not
// the host's stderr), and every job records a full span trace.
func runShared(benchmark string, jobs []job, isolated map[int64]string, telemetry bool) (Phase, error) {
	p := Phase{Telemetry: "off", TracesValid: true}
	ro := lambdatune.RuntimeOptions{
		EvalSlots:     evalSlots,
		TenantWeights: map[string]int{hotTenant: 4},
		MemoCapacity:  memoCapacity,
	}
	var metrics *lambdatune.Metrics
	if telemetry {
		p.Telemetry = "on"
		metrics = lambdatune.NewMetrics()
		ro.Metrics = metrics
		ro.Logger = slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}
	rt := lambdatune.NewRuntime(ro)
	defer rt.Close()

	type outcome struct {
		key   string
		ms    float64
		err   error
		match bool
		spans int
	}
	results := make([]outcome, len(jobs))
	work := make(chan int)
	var wg sync.WaitGroup
	var checkTick, validated atomic.Uint64
	cpu0 := cpuSeconds()
	start := time.Now()
	for w := 0; w < Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				j := jobs[i]
				jobStart := time.Now()
				db, wl, err := rt.Benchmark(benchmark, lambdatune.Postgres)
				if err != nil {
					results[i] = outcome{err: err}
					continue
				}
				opts := jobOptions(j.seed, j.tenant)
				var trace *lambdatune.Trace
				if telemetry {
					trace = lambdatune.NewTrace()
					opts.Observability.Trace = trace
				}
				res, err := rt.TuneContext(context.Background(), db, wl,
					lambdatune.NewSimulatedLLM(j.seed), opts)
				if err != nil {
					results[i] = outcome{err: err}
					continue
				}
				out := outcome{
					key:   resultKey(res),
					match: resultKey(res) == isolated[j.seed],
				}
				// Mirror the daemon's trace lifecycle exactly: the handle dies
				// with the job (the manager retains only a bounded FIFO, and
				// holding every trace to phase end would price an ever-growing
				// live heap no deployment holds), and the schema self-check is
				// sampled — the first job and every validateEvery-th after
				// export and validate, matching the manager's sampled
				// post-completion check (schema breaks are systematic, so a
				// sample catches them without a full export per job).
				if trace != nil {
					out.spans = trace.Tracer().Len()
					if n := checkTick.Add(1); n == 1 || n%validateEvery == 0 {
						recs := trace.Tracer().Records()
						validated.Add(1)
						if err := obs.ValidateRecords(recs); err != nil {
							out.err = fmt.Errorf("invalid trace: %w", err)
						}
					}
				}
				out.ms = time.Since(jobStart).Seconds() * 1000
				results[i] = out
			}
		}()
	}
	for i := range jobs {
		work <- i
	}
	close(work)
	wg.Wait()
	p.WallSeconds = time.Since(start).Seconds()
	p.CPUSeconds = cpuSeconds() - cpu0
	if p.WallSeconds > 0 {
		p.JobsPerSec = float64(len(jobs)) / p.WallSeconds
	}

	p.Identical = true
	lat := make([]float64, 0, len(jobs))
	for i, r := range results {
		if r.err != nil {
			if strings.Contains(r.err.Error(), "invalid trace") {
				p.TracesValid = false
			}
			return p, fmt.Errorf("telemetry-%s job %d (tenant %s): %w", p.Telemetry, i, jobs[i].tenant, r.err)
		}
		if !r.match {
			p.Identical = false
		}
		p.TotalSpans += r.spans
		lat = append(lat, r.ms)
	}
	p.TracesChecked = int(validated.Load())
	sort.Float64s(lat)
	p.P50Ms = percentile(lat, 0.50)
	p.P99Ms = percentile(lat, 0.99)
	if metrics != nil {
		p.MetricsSeries = len(metrics.Snapshot())
	}
	return p, nil
}

// phaseReps is the number of interleaved off/on pairs. The pairs alternate
// within-pair order (off/on, on/off, ...) rather than running in blocks:
// host throughput drifts over a minutes-long study, and both a blocked
// order and a fixed within-pair order would charge that drift
// systematically to one condition. Correctness is required of every rep;
// the headline overhead is the median of the per-pair ratios (see
// Study.OverheadPct), an odd count so the median is a real pair.
const phaseReps = 5

// warmupJobs is the length of the unmeasured warmup pass each condition
// runs before the measured pairs (enough jobs to reach the steady-state
// heap at full worker concurrency, a fraction of a full pass's cost).
const warmupJobs = 200

// median returns the middle value of xs (mean of the two middles for an
// even count, 0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// better keeps the fastest correct repetition of a phase.
func better(best, p Phase, first bool) Phase {
	if first || p.WallSeconds < best.WallSeconds {
		return p
	}
	return best
}

// pairOrder alternates which condition leads each interleaved pair: even
// reps run dark first, odd reps run telemetry first.
func pairOrder(rep int) [2]bool {
	if rep%2 == 0 {
		return [2]bool{false, true}
	}
	return [2]bool{true, false}
}

// percentile reads the q-quantile from an ascending slice (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Run executes the study: an isolated baseline per distinct seed, then the
// stream with telemetry dark, then with every sink live.
func Run(seed int64, jobs int) (*Study, error) {
	s := &Study{Benchmark: "job", Jobs: jobs, Workers: Workers, EvalSlots: evalSlots, Seed: seed}
	js, hot, warm, cold := stream(seed, jobs)
	s.HotJobs, s.WarmJobs, s.ColdJobs = hot, warm, cold

	// Phase 1: isolated baseline — one standalone run per distinct seed pins
	// the authoritative result for every job sharing it.
	isolated := make(map[int64]string)
	order := make([]int64, 0)
	for _, j := range js {
		if _, ok := isolated[j.seed]; !ok {
			isolated[j.seed] = ""
			order = append(order, j.seed)
		}
	}
	sort.Slice(order, func(i, k int) bool { return order[i] < order[k] })
	start := time.Now()
	for _, sd := range order {
		db, w, err := lambdatune.Benchmark(s.Benchmark, lambdatune.Postgres)
		if err != nil {
			return nil, err
		}
		res, err := db.Tune(w, lambdatune.NewSimulatedLLM(sd), jobOptions(sd, ""))
		if err != nil {
			return nil, fmt.Errorf("isolated seed %d: %w", sd, err)
		}
		isolated[sd] = resultKey(res)
	}
	s.IsolatedRuns = len(order)
	s.IsolatedWallSeconds = time.Since(start).Seconds()

	// Warmup: one short unmeasured pass per condition. The first telemetry
	// pass in a fresh process grows the heap to the 16-worker traced live
	// set, and charging that one-time growth to the first measured pair
	// skews it by far more than the effect being measured.
	for _, telemetry := range []bool{false, true} {
		warm := js
		if len(warm) > warmupJobs {
			warm = warm[:warmupJobs]
		}
		if _, err := runShared(s.Benchmark, warm, isolated, telemetry); err != nil {
			return nil, err
		}
	}

	// Phases 2+3: telemetry dark (the cost floor) and every sink live, as
	// interleaved pairs with alternating within-pair order; each phase
	// reports its fastest correct rep. A rep that breaks determinism is
	// surfaced immediately.
	broke := false
	for r := 0; r < phaseReps && !broke; r++ {
		var offWall, onWall, offCPU, onCPU float64
		for _, telemetry := range pairOrder(r) {
			runtime.GC()
			p, err := runShared(s.Benchmark, js, isolated, telemetry)
			if err != nil {
				return nil, err
			}
			if telemetry {
				onWall, onCPU = p.WallSeconds, p.CPUSeconds
				s.On = better(s.On, p, r == 0)
				s.OnRepWallSeconds = append(s.OnRepWallSeconds, p.WallSeconds)
				if !p.Identical {
					s.On = p
				}
			} else {
				offWall, offCPU = p.WallSeconds, p.CPUSeconds
				s.Off = better(s.Off, p, r == 0)
				s.OffRepWallSeconds = append(s.OffRepWallSeconds, p.WallSeconds)
				if !p.Identical {
					s.Off = p
				}
			}
			if !p.Identical {
				broke = true
				break
			}
		}
		if !broke && offWall > 0 {
			s.PairOverheadPcts = append(s.PairOverheadPcts, 100*(onWall/offWall-1))
		}
		if !broke && offCPU > 0 {
			s.PairCPUOverheadPcts = append(s.PairCPUOverheadPcts, 100*(onCPU/offCPU-1))
		}
	}

	if len(s.PairOverheadPcts) > 0 {
		s.OverheadPct = median(s.PairOverheadPcts)
	} else if s.Off.JobsPerSec > 0 {
		s.OverheadPct = 100 * (s.Off.JobsPerSec - s.On.JobsPerSec) / s.Off.JobsPerSec
	}
	s.OverheadWithin5Pct = s.OverheadPct < 5
	s.IdenticalToIsolated = s.Off.Identical && s.On.Identical
	s.TracesValid = s.On.TracesValid
	s.MetricsPresent = s.On.MetricsSeries > 0
	return s, nil
}

// Render prints the study as a table.
func Render(s *Study) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E17 observability overhead, %d × %s / Postgres (hot %d / warm %d / cold %d), %d workers, %d eval slots, seed %d\n",
		s.Jobs, s.Benchmark, s.HotJobs, s.WarmJobs, s.ColdJobs, s.Workers, s.EvalSlots, s.Seed)
	fmt.Fprintf(&b, "isolated baseline: %d distinct seeds in %.2fs\n", s.IsolatedRuns, s.IsolatedWallSeconds)
	fmt.Fprintf(&b, "%-10s %8s %8s %9s %8s %8s %9s %8s %9s\n",
		"telemetry", "wall_s", "cpu_s", "jobs/s", "p50_ms", "p99_ms", "spans", "series", "identical")
	for _, p := range []Phase{s.Off, s.On} {
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %9.1f %8.2f %8.2f %9d %8d %9v\n",
			p.Telemetry, p.WallSeconds, p.CPUSeconds, p.JobsPerSec, p.P50Ms, p.P99Ms,
			p.TotalSpans, p.MetricsSeries, p.Identical)
	}
	fmt.Fprintf(&b, "rep walls (s): off %s | on %s\n",
		wallList(s.OffRepWallSeconds), wallList(s.OnRepWallSeconds))
	fmt.Fprintf(&b, "pair overheads (%%): wall %s | cpu %s\n",
		wallList(s.PairOverheadPcts), wallList(s.PairCPUOverheadPcts))
	fmt.Fprintf(&b, "overhead: %.2f%% wall (median of pairs; bar < 5%%); traces valid: %v (%d checked); metrics series: %d\n",
		s.OverheadPct, s.TracesValid, s.On.TracesChecked, s.On.MetricsSeries)
	return b.String()
}

// wallList renders rep wall times compactly.
func wallList(ws []float64) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = fmt.Sprintf("%.2f", w)
	}
	return strings.Join(parts, " ")
}

// ExportJSON writes the study as the BENCH_obs.json artifact checked by CI
// (`make bench-obs`).
func ExportJSON(path string, s *Study) error {
	doc := struct {
		Description string `json:"description"`
		Collected   string `json:"collected"`
		Study       *Study `json:"study"`
	}{
		Description: "E17 — observability overhead at daemon scale: the E16 thousand-job stream on one shared Runtime with every telemetry sink dark vs live (metrics registry, per-job span traces, Info-level JSON slog), with an isolated baseline pinning every per-job result. Regenerate with `make bench-obs`.",
		Collected:   time.Now().UTC().Format("2006-01-02"),
		Study:       s,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
