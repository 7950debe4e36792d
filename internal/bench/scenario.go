// Package bench reproduces every table and figure of the paper's evaluation
// (§6) on the simulated substrate. Experiment identifiers follow DESIGN.md's
// per-experiment index (E1 = Table 3 … E10 = the LLM-outlier study).
//
// Absolute numbers are simulated seconds, not the paper's EC2 wall-clock;
// the reproduction target is the *shape* of each result — which system wins,
// by roughly what factor, and where the cross-overs fall.
package bench

import (
	"context"
	"fmt"
	"log"
	"math"
	"path/filepath"
	"sync/atomic"

	"lambdatune/internal/backend"
	"lambdatune/internal/baselines"
	"lambdatune/internal/baselines/db2advisor"
	"lambdatune/internal/baselines/dbbert"
	"lambdatune/internal/baselines/dexter"
	"lambdatune/internal/baselines/gptuner"
	"lambdatune/internal/baselines/llamatune"
	"lambdatune/internal/baselines/paramtree"
	"lambdatune/internal/baselines/udo"
	"lambdatune/internal/core/tuner"
	"lambdatune/internal/engine"
	"lambdatune/internal/llm"
	"lambdatune/internal/obs"
	"lambdatune/internal/workload"
)

// traceDir, when set, makes every RunLambdaTune invocation record a span
// trace and write it to <dir>/run-<seq>-seed<seed>.jsonl.
var (
	traceDir string
	traceSeq atomic.Int64
)

// SetTraceDir enables per-run JSONL trace export for all subsequent
// RunLambdaTune calls ("" disables). benchrunner -trace-dir uses this; the
// directory must already exist. Not safe to flip concurrently with runs.
func SetTraceDir(dir string) { traceDir = dir }

// Scenario is one evaluation setting: benchmark × DBMS × initial-index
// regime.
type Scenario struct {
	Benchmark      string // workload.ByName key
	Flavor         engine.Flavor
	InitialIndexes bool
	// Trials is the number of repetitions (the paper runs 3); traces are
	// averaged per trial seed.
	Trials int
	// Seed is the base random seed.
	Seed int64
}

// Label renders e.g. "TPC-H 1GB / PG / Initial Indexes".
func (s Scenario) Label() string {
	fl := "PG"
	if s.Flavor == engine.MySQL {
		fl = "MS"
	}
	ix := "No"
	if s.InitialIndexes {
		ix = "Yes"
	}
	return fmt.Sprintf("%s/%s/idx=%s", s.Benchmark, fl, ix)
}

// NewDB materializes the scenario's backend and workload: a fresh simulator
// instance with default settings and, in the initial-index regime, permanent
// PK/FK indexes.
func (s Scenario) NewDB() (*backend.Sim, *workload.Workload, error) {
	w, err := workload.ByName(s.Benchmark)
	if err != nil {
		return nil, nil, err
	}
	db := backend.NewSim(s.Flavor, w.Catalog, engine.DefaultHardware)
	if s.InitialIndexes {
		for _, d := range w.InitialIndexes() {
			db.CreatePermanentIndex(d)
		}
	}
	return db, w, nil
}

// LambdaTune adapts the core tuner to the baselines.Tuner interface so the
// harness can run it alongside the comparison systems.
type LambdaTune struct {
	Seed int64
	// Opts configures the run; zero value means tuner.DefaultOptions.
	Opts *tuner.Options
	// ParamsOnly strips index recommendations from LLM candidates
	// (scenario 1: pure parameter tuning).
	ParamsOnly bool
}

// Name implements baselines.Tuner.
func (l *LambdaTune) Name() string { return "λ-Tune" }

// Tune implements baselines.Tuner. λ-Tune bounds its own evaluation cost
// (Theorem 4.3), so the deadline is not used to cut it short.
func (l *LambdaTune) Tune(db backend.Backend, queries []*engine.Query, deadline float64) *baselines.Trace {
	_ = deadline
	tr := baselines.NewTrace(l.Name())
	res, err := l.RunLambdaTune(db, queries)
	if err != nil {
		return tr
	}
	tr.Evaluated = len(res.Candidates)
	for _, ev := range res.Progress {
		tr.Events = append(tr.Events, baselines.Event{Clock: ev.Clock, BestTime: ev.BestTime, ConfigID: ev.ConfigID})
	}
	if res.Best != nil {
		tr.BestTime = res.BestTime
		tr.BestConfig = res.Best
	}
	return tr
}

// stripIndexes is a client wrapper that removes CREATE INDEX commands from
// LLM responses, implementing the pure-parameter-tuning regime without
// re-sampling.
type stripIndexes struct{ inner llm.Client }

func (s stripIndexes) Name() string { return s.inner.Name() }

func (s stripIndexes) Complete(ctx context.Context, prompt string) (string, error) {
	return s.filter(s.inner.Complete(ctx, prompt))
}

// CompleteT implements llm.TemperatureCompleter, forwarding the temperature
// to the inner client when it supports one.
func (s stripIndexes) CompleteT(ctx context.Context, prompt string, temp float64) (string, error) {
	return s.filter(llm.Complete(ctx, s.inner, prompt, temp))
}

func (s stripIndexes) filter(out string, err error) (string, error) {
	if err != nil {
		return "", err
	}
	var kept []byte
	for _, line := range splitLines(out) {
		if !isCreateIndex(line) {
			kept = append(kept, line...)
			kept = append(kept, '\n')
		}
	}
	return string(kept), nil
}

// RunLambdaTune executes λ-Tune on the scenario database, honoring the
// ParamsOnly regime via response filtering.
func (l *LambdaTune) RunLambdaTune(db backend.Backend, queries []*engine.Query) (*tuner.Result, error) {
	opts := tuner.DefaultOptions()
	if l.Opts != nil {
		opts = *l.Opts
	}
	opts.Seed = l.Seed
	var client llm.Client = llm.NewSimClient(l.Seed)
	if l.ParamsOnly {
		client = stripIndexes{inner: client}
	}
	var tr *obs.Tracer
	if traceDir != "" {
		tr = obs.NewTracer()
		opts.Trace = tr
	}
	res, err := tuner.New(db, client, opts).Tune(context.Background(), queries)
	if tr != nil {
		path := filepath.Join(traceDir, fmt.Sprintf("run-%03d-seed%d.jsonl", traceSeq.Add(1), l.Seed))
		if werr := tr.WriteFile(path); werr != nil {
			log.Printf("bench: trace export: %v", werr)
		}
	}
	return res, err
}

// baselineSet builds the five comparison tuners for a scenario. ParamsOnly
// (initial-index regime) switches UDO to parameter actions only.
func baselineSet(seed int64, paramsOnly bool, trialTimeout float64) []baselines.Tuner {
	u := udo.New(seed)
	u.TuneIndexes = !paramsOnly
	u.EvalTimeout = trialTimeout
	db := dbbert.New(seed)
	db.EvalTimeout = trialTimeout
	gp := gptuner.New(seed)
	gp.EvalTimeout = trialTimeout
	ll := llamatune.New(seed)
	ll.EvalTimeout = trialTimeout
	// ParamTree performs a single measurement run, not a search; it is not
	// subject to the trial timeout.
	pt := paramtree.New()
	return []baselines.Tuner{u, db, gp, ll, pt}
}

// withPlannerFriendlySettings runs fn under index-friendly planner settings
// on Postgres, restoring the previous assignment afterwards.
func withPlannerFriendlySettings(db *backend.Sim, fn func() []engine.IndexDef) []engine.IndexDef {
	if db.Flavor() != engine.Postgres {
		return fn()
	}
	saved := db.Settings()
	s := db.Settings()
	s["random_page_cost"] = 1.1
	s["effective_cache_size"] = float64(db.Hardware().MemoryBytes * 3 / 4)
	db.SetSettings(s)
	defer db.SetSettings(saved)
	return fn()
}

// DexterIndexes returns Dexter's recommendations under index-friendly
// planner settings, as the harness pre-creates them for parameter-only
// baselines in scenario 2 (paper §6.2).
func DexterIndexes(db *backend.Sim, queries []*engine.Query) []engine.IndexDef {
	return withPlannerFriendlySettings(db, func() []engine.IndexDef {
		return dexter.New().Recommend(db, queries)
	})
}

// DB2Indexes returns the DB2 advisor's recommendations analogously.
func DB2Indexes(db *backend.Sim, queries []*engine.Query) []engine.IndexDef {
	return withPlannerFriendlySettings(db, func() []engine.IndexDef {
		return db2advisor.New().Recommend(db, queries)
	})
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func isCreateIndex(line string) bool {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	up := line[i:]
	return len(up) >= 12 && equalFold(up[:12], "CREATE INDEX")
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'a' <= ca && ca <= 'z' {
			ca -= 32
		}
		if 'a' <= cb && cb <= 'z' {
			cb -= 32
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// inf is a shorthand used across the harness.
var inf = math.Inf(1)
