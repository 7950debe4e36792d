package benchmark

import (
	"errors"
	"fmt"
	"path/filepath"

	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
	"lambdatune/internal/service"
)

// layerRun is a --trace run after set-up: one measured window's jobs, the
// middle half with the benchmark's spans on and the outer quarters without;
// the per-layer counters read from the program; and the component pass.
type layerRun struct {
	w        *Workload
	s        *stream
	runDir   string
	traceOut string
	jobs     int
	untraced window

	traced    window
	comp      componentPass
	scenarios int
}

// phases are the program's own per-job cost buckets (obs.Phase*).
var phases = []string{obs.PhasePrompt, obs.PhaseLLM, obs.PhaseEval, obs.PhaseSchedule, obs.PhaseIndex}

func (l *layerRun) run() (map[string]float64, error) {
	v := map[string]float64{}
	// The window's jobs split into a traced half between two untraced
	// quarters: a daemon speeds up as its heap grows and GC runs less
	// often, and bracketing the traced jobs cancels that drift out of the
	// overhead estimate.
	half, quarter := max(1, l.jobs/2), max(1, l.jobs/4)
	before, err := l.s.run(nil, nil, quarter, l.s.deadline(quarter))
	if err != nil {
		return nil, err
	}
	tr := obs.NewTracer()
	root := tr.Start(nil, "bench."+l.w.Name, 0)
	l.traced, err = l.s.run(tr, root, half, l.s.deadline(half))
	root.End(0)
	if err != nil {
		return nil, err
	}
	after, err := l.s.run(nil, nil, quarter, l.s.deadline(quarter))
	if err != nil {
		return nil, err
	}
	l.untraced = before
	l.untraced.add(after)
	traced := l.traced
	v["obs.trace_overhead_pct"] = 100 * (1 - jobsPerSecond(traced)/jobsPerSecond(l.untraced))

	// The stream's own counters, read before the component pass adds work.
	d := l.s.d
	if d != nil {
		if err := daemonCounters(v, d, traced.outcomes); err != nil {
			return nil, err
		}
		if err := daemonPlans(v, d, traced.outcomes); err != nil {
			return nil, err
		}
		// The daemon traces every job itself, and only its newest jobs keep
		// their traces, so the cost table comes from the newest jobs.
		newest := append(append([]jobOutcome(nil), traced.outcomes...), after.outcomes...)
		if err := daemonPhases(v, d, newest); err != nil {
			return nil, err
		}
	} else {
		standalonePhases(v, traced.outcomes)
	}

	specs := componentSpecs(l.s.mix)
	l.scenarios = len(specs)
	compRoot := tr.Start(nil, "bench.components", 0)
	l.comp = componentPass{tr: tr, root: compRoot, dir: filepath.Join(l.runDir, "components"), d: d}
	if d == nil {
		// Standalone runs have no daemon: the service-side layers are timed
		// on a probe daemon fed this workload's scenarios.
		probe, err := startDaemon(filepath.Join(l.runDir, "probe"), l.w)
		if err != nil {
			return nil, err
		}
		defer probe.close()
		l.comp.d = probe
	}
	err = l.comp.run(specs)
	compRoot.End(0)
	if err != nil {
		return nil, err
	}
	if d == nil {
		var probeJobs []jobOutcome
		for _, o := range l.comp.outcomes {
			if o.id != "" {
				probeJobs = append(probeJobs, o)
			}
		}
		if err := daemonCounters(v, l.comp.d, probeJobs); err != nil {
			return nil, err
		}
	}
	v["llm.calls_per_job"] = float64(l.comp.llmCalls.Load()) / float64(l.comp.tunes)

	recs, err := writeTrace(tr, l.traceOut)
	if err != nil {
		return nil, err
	}
	if err := spanTimings(v, selfTimesMS(recs), "bench."+l.w.Name); err != nil {
		return nil, err
	}
	return v, nil
}

func jobsPerSecond(win window) float64 {
	n := 0
	for _, o := range win.outcomes {
		if o.ok() {
			n++
		}
	}
	return float64(n) / win.elapsed.Seconds()
}

// componentSpecs picks the component pass's scenarios: the first distinct
// ones of the stream.
func componentSpecs(mix Mix) []service.JobSpec {
	seen := map[scenario]bool{}
	var out []service.JobSpec
	for i := 0; i < virtualEntries && len(out) < componentScenarios; i++ {
		spec := mix(i)
		if sc := scenarioOf(spec); !seen[sc] {
			seen[sc] = true
			out = append(out, spec)
		}
	}
	return out
}

// daemonCounters reads the counters the daemon keeps about the jobs it ran:
// the shared Runtime's memo, the evaluation slots, the data dir, and
// refusals among outs.
func daemonCounters(v map[string]float64, d *daemon, outs []jobOutcome) error {
	st := d.rt.Stats()
	jobs := float64(max(st.Jobs, 1))
	v["runtime.memo_hit_rate"] = ratio(float64(st.MemoHits), float64(st.MemoLookups))
	v["runtime.memo_cross_job_hit_rate"] = st.CrossJobHitRate()
	v["runtime.memo_evictions_per_job"] = float64(st.MemoEvictions) / jobs
	v["runtime.memo_hit_retention"] = st.MemoHitRetention

	refused := 0
	for _, o := range outs {
		if o.refused {
			refused++
		}
	}
	v["service.refused_per_job"] = ratio(float64(refused), float64(len(outs)))

	wait, err := d.slotWaitMS()
	if err != nil {
		return err
	}
	v["evaluator.slot_wait_ms"] = wait
	bytes, files, jobDirs, err := diskUsage(d.dir)
	if err != nil {
		return err
	}
	v["service.disk_kb_per_job"] = float64(bytes) / 1024 / float64(max(jobDirs, 1))
	v["runstate.files_per_job"] = float64(files) / float64(max(jobDirs, 1))
	return nil
}

// daemonPlans reads the plan caches of the daemon's benchmark templates.
// Their counters are shared by a template and all its snapshots, so one
// probe database per (benchmark, DBMS) reads a template's totals since boot.
func daemonPlans(v map[string]float64, d *daemon, outs []jobOutcome) error {
	var ps engine.PlanCacheStats
	seen := map[[2]string]bool{}
	for _, o := range outs {
		sc := scenarioOf(o.spec)
		if key := [2]string{sc.Benchmark, sc.DBMS}; !seen[key] {
			seen[key] = true
			db, _, err := d.rt.Benchmark(sc.Benchmark, dbmsOf(o.spec))
			if err != nil {
				return err
			}
			s := db.PlanCacheStats()
			ps.Hits += s.Hits
			ps.Misses += s.Misses
			ps.Evictions += s.Evictions
		}
	}
	setPlans(v, ps, d.rt.Stats().Jobs)
	return nil
}

func setPlans(v map[string]float64, ps engine.PlanCacheStats, jobs int) {
	v["engine.plan_hit_rate"] = ps.HitRate()
	v["engine.plan_evictions_per_job"] = float64(ps.Evictions) / float64(max(jobs, 1))
}

// summaryJobs is how many of the newest finished jobs daemonPhases reads
// /summary for; the daemon retains the traces of its 64 newest jobs.
const summaryJobs = 48

// daemonPhases reads the program's per-job cost table from /summary for the
// newest finished jobs, after the window.
func daemonPhases(v map[string]float64, d *daemon, outs []jobOutcome) error {
	perPhase := map[string][]float64{}
	var spans []float64
	for i := len(outs) - 1; i >= 0 && len(spans) < summaryJobs; i-- {
		if !outs[i].ok() {
			continue
		}
		s, err := d.api.TraceSummary(outs[i].id)
		var apiErr *service.APIError
		if errors.As(err, &apiErr) && apiErr.Code == service.CodeTraceUnavailable {
			continue
		}
		if err != nil {
			return fmt.Errorf("summary of %s: %w", outs[i].id, err)
		}
		spans = append(spans, float64(s.Spans))
		got := map[string]float64{}
		for _, p := range s.Phases {
			got[p.Phase] = 1e3 * p.WallSeconds
		}
		for _, ph := range phases {
			perPhase[ph] = append(perPhase[ph], got[ph])
		}
	}
	if len(spans) == 0 {
		return fmt.Errorf("no finished job kept its trace")
	}
	setPhases(v, perPhase, spans)
	return nil
}

// standalonePhases reads the same table from each run's Result.Telemetry.
func standalonePhases(v map[string]float64, outs []jobOutcome) {
	perPhase := map[string][]float64{}
	var spans []float64
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		spans = append(spans, float64(o.spans))
		for _, ph := range phases {
			perPhase[ph] = append(perPhase[ph], o.phaseMS[ph])
		}
	}
	setPhases(v, perPhase, spans)
	setPlans(v, planStats(outs), len(spans))
}

func setPhases(v map[string]float64, perPhase map[string][]float64, spans []float64) {
	for _, ph := range phases {
		v["tuner."+ph+"_wall_ms"] = Percentile(perPhase[ph], 0.5)
	}
	v["tuner.spans_per_job"] = Percentile(spans, 0.5)
}

// spanTimings turns the benchmark's spans into layer timings. A layer the
// workload's stream called is timed there; otherwise the component pass
// timed it.
func spanTimings(v map[string]float64, self map[string]map[string][]float64, streamRoot string) error {
	pick := func(name string) ([]float64, error) {
		if xs := self[streamRoot][name]; len(xs) > 0 {
			return xs, nil
		}
		if xs := self["bench.components"][name]; len(xs) > 0 {
			return xs, nil
		}
		return nil, fmt.Errorf("trace has no %s spans", name)
	}
	timings := []struct {
		metric, span string
		q            float64
	}{
		{"service.enqueue_ms", "service.enqueue", 0.5},
		{"service.get_ms", "service.get", 0.5},
		{"service.stream_ms", "service.stream", 0.5},
		{"service.list_ms", "service.list", 0.5},
		{"service.list_p99_ms", "service.list", 0.99},
		{"service.summary_ms", "service.summary", 0.5},
		{"service.summary_p99_ms", "service.summary", 0.99},
		{"service.trace_ms", "service.trace", 0.5},
		{"service.trace_p99_ms", "service.trace", 0.99},
		{"service.metrics_ms", "service.metrics", 0.5},
		{"service.metrics_p99_ms", "service.metrics", 0.99},
		{"runstate.save_ms", "runstate.save", 0.5},
		{"runstate.encode_ms", "runstate.encode", 0.5},
		{"engine.plan_cold_ms", "engine.plan_cold", 0.5},
		{"engine.plan_warm_ms", "engine.plan_warm", 0.5},
		{"schedule.order_ms", "schedule.order", 0.5},
		{"prompt.generate_ms", "prompt.generate", 0.5},
		{"ilp.select_ms", "ilp.select", 0.5},
		{"llm.complete_ms", "llm.complete", 0.5},
		{"workload.build_ms", "workload.build", 0.5},
	}
	for _, t := range timings {
		xs, err := pick(t.span)
		if err != nil {
			return err
		}
		v[t.metric] = Percentile(xs, t.q)
	}
	var reads []float64
	var total float64
	for _, r := range readRoutes {
		xs, _ := pick(r.name)
		reads = append(reads, xs...)
		for _, x := range xs {
			total += x
		}
	}
	v["service.read_p50_ms"] = Percentile(reads, 0.5)
	v["service.read_p99_ms"] = Percentile(reads, 0.99)
	v["service.reads_per_s"] = 1e3 * float64(len(reads)) / total
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
