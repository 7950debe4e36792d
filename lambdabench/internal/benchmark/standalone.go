package benchmark

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lambdatune"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
	"lambdatune/internal/service"
)

// tuneOptions maps a job spec onto Options exactly as the daemon's job
// runner does, so a standalone run of the spec is the job's reference.
func tuneOptions(spec service.JobSpec) lambdatune.Options {
	opts := lambdatune.DefaultOptions()
	opts.Seed = scenarioOf(spec).Seed
	if spec.Samples > 0 {
		opts.Samples = spec.Samples
	}
	opts.Evaluation.Parallelism = spec.Parallelism
	opts.Tenant = spec.Tenant
	return opts
}

func dbmsOf(spec service.JobSpec) lambdatune.DBMS {
	if strings.EqualFold(spec.DBMS, "mysql") {
		return lambdatune.MySQL
	}
	return lambdatune.Postgres
}

// timedClient wraps the simulated LLM to time and count its calls. It
// forwards CompleteT, so the tuner still samples at the run's temperature and
// a wrapped run selects exactly what an unwrapped one does; the correctness
// gate checks every wrapped run against its reference.
type timedClient struct {
	inner  lambdatune.TemperatureClient
	tr     *obs.Tracer
	parent *obs.Span
	calls  *atomic.Int64
}

func newTimedClient(seed int64, tr *obs.Tracer, parent *obs.Span, calls *atomic.Int64) *timedClient {
	return &timedClient{inner: lambdatune.NewSimulatedLLM(seed).(lambdatune.TemperatureClient), tr: tr, parent: parent, calls: calls}
}

func (c *timedClient) Name() string { return c.inner.Name() }

func (c *timedClient) Complete(ctx context.Context, prompt string) (out string, err error) {
	c.calls.Add(1)
	_ = span(c.tr, c.parent, "llm.complete", func() error {
		out, err = c.inner.Complete(ctx, prompt)
		return err
	})
	return out, err
}

func (c *timedClient) CompleteT(ctx context.Context, prompt string, temperature float64) (out string, err error) {
	c.calls.Add(1)
	_ = span(c.tr, c.parent, "llm.complete", func() error {
		out, err = c.inner.CompleteT(ctx, prompt, temperature)
		return err
	})
	return out, err
}

// standaloneRun is one Benchmark+Tune call, as the lambdatune CLI and the
// paper tables make it.
type standaloneRun struct {
	// Trace, when set, records the run's spans; the run then also asks the
	// program for its own per-phase telemetry.
	Trace  *obs.Tracer
	Parent *obs.Span
	// CheckpointDir, when set, makes the run checkpoint there.
	CheckpointDir string
	// LLMCalls counts the wrapped client's calls (traced runs only).
	LLMCalls *atomic.Int64
}

// run executes spec standalone and reports what a daemon client would see,
// plus the run's telemetry and plan-cache counters.
func (s standaloneRun) run(spec service.JobSpec) jobOutcome {
	out := jobOutcome{spec: spec}
	start := time.Now()
	job := s.Trace.Start(s.Parent, "bench.job", 0)
	defer job.End(0)
	var (
		db *lambdatune.Database
		w  *lambdatune.Workload
	)
	out.err = span(s.Trace, job, "workload.build", func() (err error) {
		db, w, err = lambdatune.Benchmark(spec.Benchmark, dbmsOf(spec))
		return err
	})
	if out.err != nil {
		out.ms = msSince(start)
		return out
	}
	opts := tuneOptions(spec)
	opts.Durability.CheckpointDir = s.CheckpointDir
	tune := s.Trace.Start(job, "tuner.tune", 0)
	var client lambdatune.Client = lambdatune.NewSimulatedLLM(opts.Seed)
	if s.Trace != nil {
		client = newTimedClient(opts.Seed, s.Trace, tune, s.LLMCalls)
		opts.Observability.Trace = lambdatune.NewTrace()
	}
	res, err := db.Tune(w, client, opts)
	tune.End(0)
	out.ms = msSince(start)
	out.err = err
	if out.err != nil {
		return out
	}
	out.status = service.StatusSucceeded
	out.result = &service.JobResult{
		BestScript: res.BestScript, BestSeconds: res.BestSeconds, DefaultSeconds: res.DefaultSeconds,
		Speedup: res.Speedup(), TuningSeconds: res.TuningSeconds, Candidates: res.Candidates,
	}
	out.plan = db.PlanCacheStats()
	if t := res.Telemetry; t != nil {
		out.spans = t.Spans
		out.phaseMS = map[string]float64{}
		for _, p := range t.Phases {
			out.phaseMS[p.Phase] = 1e3 * p.WallSeconds
		}
	}
	return out
}

// resultKey condenses a run's deterministic outcome for equality checks:
// the fields the E15/E16 studies pin (jobstudy.resultKey), at full float
// precision.
func resultKey(r *service.JobResult) string {
	return fmt.Sprintf("best=%q bestSeconds=%.17g defaultSeconds=%.17g tuningSeconds=%.17g candidates=%d",
		r.BestScript, r.BestSeconds, r.DefaultSeconds, r.TuningSeconds, r.Candidates)
}

// references runs each scenario once, standalone and untraced, on Clients
// goroutines: the isolated results every job must reproduce.
func references(scens []scenario) (map[scenario]*service.JobResult, error) {
	refs := make(map[scenario]*service.JobResult, len(scens))
	var (
		mu       sync.Mutex
		firstErr error
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for c := 0; c < Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(scens) {
					return
				}
				sc := scens[i]
				o := standaloneRun{}.run(service.JobSpec{
					Benchmark: sc.Benchmark, DBMS: sc.DBMS, Seed: sc.Seed, Parallelism: sc.Parallelism,
				})
				mu.Lock()
				if o.err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference run %s: %w", sc, o.err)
				}
				refs[sc] = o.result
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return refs, firstErr
}

// gate checks every succeeded job against its scenario's reference. Daemon
// jobs are compared with an isolated standalone run. Standalone jobs are
// compared with each other; a scenario that ran only once gets one more
// standalone run as its reference. It returns the reference result of every
// scenario seen, for the virtual-clock metrics.
func gate(outcomes []jobOutcome, daemon bool) (map[scenario]*service.JobResult, error) {
	runs := map[scenario]int{}
	for _, o := range outcomes {
		if o.ok() {
			runs[scenarioOf(o.spec)]++
		}
	}
	var need []scenario
	for sc, n := range runs {
		if daemon || n < 2 {
			need = append(need, sc)
		}
	}
	sort.Slice(need, func(i, j int) bool { return need[i].String() < need[j].String() })
	refs, err := references(need)
	if err != nil {
		return nil, err
	}
	for _, o := range outcomes {
		if !o.ok() {
			continue
		}
		sc := scenarioOf(o.spec)
		ref, ok := refs[sc]
		if !ok {
			refs[sc] = o.result
			continue
		}
		if got, want := resultKey(o.result), resultKey(ref); got != want {
			name := o.id
			if name == "" {
				name = "standalone run"
			}
			return nil, fmt.Errorf("correctness gate: %s (%s) returned %s, reference %s", name, sc, got, want)
		}
	}
	return refs, nil
}

// planStats sums plan-cache counters.
func planStats(outcomes []jobOutcome) engine.PlanCacheStats {
	var s engine.PlanCacheStats
	for _, o := range outcomes {
		s.Hits += o.plan.Hits
		s.Misses += o.plan.Misses
		s.Evictions += o.plan.Evictions
	}
	return s
}
