package lambdatune_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lambdatune"
	"lambdatune/internal/obs"
)

// sweepRun is one tuning run of the selection sweep.
type sweepRun struct {
	name  string
	bench string
	dbms  lambdatune.DBMS
	opts  lambdatune.Options
}

// sweepLine tunes one run with tracing on and renders its golden line: the
// run's name, a SHA-256 of its trace shape, and its outcome.
func sweepLine(t *testing.T, r sweepRun) string {
	t.Helper()
	db, w, err := lambdatune.Benchmark(r.bench, r.dbms)
	if err != nil {
		t.Error(err)
		return ""
	}
	trace := lambdatune.NewTrace()
	r.opts.Observability.Trace = trace
	res, err := db.Tune(w, lambdatune.NewSimulatedLLM(r.opts.Seed), r.opts)
	shape := sha256.Sum256([]byte(obs.ShapeString(trace.Tracer().Records())))
	if err != nil {
		return fmt.Sprintf("%s shape=%x err=%v", r.name, shape[:8], err)
	}
	script := sha256.Sum256([]byte(res.BestScript))
	return fmt.Sprintf("%s shape=%x best=%.17g tuning=%.17g candidates=%d script=%x",
		r.name, shape[:8], res.BestSeconds, res.TuningSeconds, res.Candidates, script[:8])
}

// killResumeLines kills r after every durable checkpoint save in turn and
// resumes each killed run traced; one line per resumed run.
func killResumeLines(t *testing.T, r sweepRun) []string {
	t.Helper()
	var lines []string
	for saves := 1; ; saves++ {
		dir := t.TempDir()
		db, w, err := lambdatune.Benchmark(r.bench, r.dbms)
		if err != nil {
			t.Fatal(err)
		}
		opts := r.opts
		opts.Durability.CheckpointDir = dir
		opts.Faults = &lambdatune.FaultPlan{CrashAfterSaves: saves}
		_, err = db.Tune(w, lambdatune.NewSimulatedLLM(opts.Seed), opts)
		if err == nil {
			return lines
		}
		if !errors.Is(err, lambdatune.ErrKilled) {
			t.Fatalf("%s saves=%d: expected ErrKilled, got %v", r.name, saves, err)
		}
		resumed := r
		resumed.name = fmt.Sprintf("%s/kill-%d", r.name, saves)
		resumed.opts.Durability.CheckpointDir = dir
		resumed.opts.Durability.Resume = true
		lines = append(lines, sweepLine(t, resumed))
	}
}

// TestSelectionSweepGolden pins Algorithm 2 on a grid of public-API runs:
// every bundled benchmark on both DBMS flavors, three seeds and three
// worker counts, full and racing evaluation at several sample counts, plus
// injected faults, a tiny first timeout, racing without elimination and
// kill/resume at every checkpoint. Each run's trace shape and outcome must
// match testdata/selection_sweep.golden (regenerate with UPDATE_GOLDEN=1),
// so a change to the selector that moves any selection, virtual-clock
// reading or span shows here.
func TestSelectionSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("selection sweep: about 500 tuning runs")
	}
	dbmss := []struct {
		name string
		dbms lambdatune.DBMS
	}{{"postgres", lambdatune.Postgres}, {"mysql", lambdatune.MySQL}}
	strategies := []struct {
		name     string
		strategy lambdatune.EvalStrategy
	}{{"full", lambdatune.FullEvaluation}, {"racing", lambdatune.Racing}}

	var runs []sweepRun
	for _, bench := range []string{"tpch-1", "job", "tpcds-1"} {
		for _, d := range dbmss {
			for seed := int64(1); seed <= 3; seed++ {
				for _, p := range []int{1, 2, 4} {
					prefix := fmt.Sprintf("%s/%s/s%d/p%d", bench, d.name, seed, p)
					base := lambdatune.DefaultOptions()
					base.Seed = seed
					base.Evaluation.Parallelism = p
					add := func(name string, opts lambdatune.Options) {
						runs = append(runs, sweepRun{name: prefix + "/" + name, bench: bench, dbms: d.dbms, opts: opts})
					}
					for _, s := range strategies {
						for _, k := range []int{5, 12, 20} {
							opts := base
							opts.Samples = k
							opts.Evaluation.Strategy = s.strategy
							add(fmt.Sprintf("%s/k%d", s.name, k), opts)
						}
					}
					faulty := base
					faulty.Faults = &lambdatune.FaultPlan{LLMRate: 0.3, EngineRate: 0.1}
					faulty.Resilience = &lambdatune.ResilienceOptions{}
					add("faults", faulty)
					tiny := base
					tiny.Evaluation.InitialTimeout = 0.01
					tiny.Evaluation.Alpha = 2
					add("tiny-timeout", tiny)
					noElim := base
					noElim.Samples = 8
					noElim.Evaluation.Strategy = lambdatune.Racing
					noElim.Evaluation.InitialTimeout = 1e6
					noElim.Evaluation.Racing = &lambdatune.RacingOptions{DisableElimination: true}
					add("racing-noelim", noElim)
				}
			}
		}
	}

	lines := make([]string, len(runs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lines[i] = sweepLine(t, runs[i])
			}
		}()
	}
	for i := range runs {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, p := range []int{1, 2} {
		for _, s := range strategies {
			opts := lambdatune.DefaultOptions()
			opts.Samples = 12
			opts.Evaluation.Parallelism = p
			opts.Evaluation.Strategy = s.strategy
			name := fmt.Sprintf("tpch-1/postgres/s1/p%d/%s/k12", p, s.name)
			lines = append(lines, killResumeLines(t, sweepRun{name: name, bench: "tpch-1", dbms: lambdatune.Postgres, opts: opts})...)
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "selection_sweep.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Errorf("%d runs, golden has %d", len(lines), len(want))
	}
	for i := 0; i < min(len(want), len(lines)); i++ {
		if lines[i] != want[i] {
			t.Errorf("run %d drifted:\n got  %s\n want %s", i, lines[i], want[i])
		}
	}
	t.Logf("%d runs", len(lines))
}
