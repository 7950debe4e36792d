package lambdatune_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lambdatune"
	"lambdatune/internal/obs"
)

// faultCell is one fault-injected cell of the selection sweep.
type faultCell struct {
	bench string
	dbms  lambdatune.DBMS
	seed  int64
}

func (c faultCell) String() string { return fmt.Sprintf("%s/%v/s%d", c.bench, c.dbms, c.seed) }

// faultOpts are the sweep's fault options for c at parallelism p.
func faultOpts(c faultCell, p int) lambdatune.Options {
	opts := lambdatune.DefaultOptions()
	opts.Seed = c.seed
	opts.Evaluation.Parallelism = p
	opts.Faults = &lambdatune.FaultPlan{LLMRate: 0.3, EngineRate: 0.1}
	opts.Resilience = &lambdatune.ResilienceOptions{}
	return opts
}

// tuneTraced tunes c under opts with tracing on.
func tuneTraced(t *testing.T, c faultCell, opts lambdatune.Options) (*lambdatune.Result, []obs.SpanRecord) {
	t.Helper()
	db, w, err := lambdatune.Benchmark(c.bench, c.dbms)
	if err != nil {
		t.Fatal(err)
	}
	trace := lambdatune.NewTrace()
	opts.Observability.Trace = trace
	res, err := db.Tune(w, lambdatune.NewSimulatedLLM(c.seed), opts)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	return res, trace.Tracer().Records()
}

// earlyVerdicts renders the candidate verdicts of every round before the
// first completion: each candidate's configuration, completion, time, index
// time and fault events. The worker that ran a candidate is left out.
func earlyVerdicts(recs []obs.SpanRecord) string {
	early := map[int]bool{}
	var b strings.Builder
	for _, r := range recs {
		switch {
		case r.Name == "round" && r.Attrs["complete_found"] == false:
			early[r.ID] = true
			fmt.Fprintf(&b, "round %v timeout=%v\n", r.Attrs["round"], r.Attrs["timeout"])
		case r.Name == "candidate" && early[r.Parent]:
			fmt.Fprintf(&b, "  %v complete=%v time=%v index_time=%v skipped=%v",
				r.Attrs["config"], r.Attrs["complete"], r.Attrs["time"], r.Attrs["index_time"], r.Attrs["skipped"])
			for _, ev := range r.Events {
				fmt.Fprintf(&b, " %s@%v", ev.Name, ev.Attrs)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestFaultRunsAtAnyWidth: engine faults are keyed by what they hit, so a
// fault-injected run evaluates on replicas like any other. Over the
// selection sweep's 18 fault cells, every round before the first
// completion gives the same candidate verdicts at parallelism 1, 2 and 4
// (a round with no completion runs every candidate at every width), and two
// runs at parallelism 4 give the same trace shape.
func TestFaultRunsAtAnyWidth(t *testing.T) {
	start := time.Now()
	var cells []faultCell
	for _, bench := range []string{"tpch-1", "job", "tpcds-1"} {
		for _, dbms := range []lambdatune.DBMS{lambdatune.Postgres, lambdatune.MySQL} {
			for seed := int64(1); seed <= 3; seed++ {
				cells = append(cells, faultCell{bench, dbms, seed})
			}
		}
	}
	for i, c := range cells {
		if testing.Short() && i > 0 && time.Since(start) > 2*time.Second {
			t.Skipf("short mode: stopped after %d of %d cells", i, len(cells))
		}
		_, p1 := tuneTraced(t, c, faultOpts(c, 1))
		want := earlyVerdicts(p1)
		if want == "" {
			t.Errorf("%s: no round before the first completion", c)
		}
		var shapes []string
		for _, p := range []int{2, 4, 4} {
			_, recs := tuneTraced(t, c, faultOpts(c, p))
			if got := earlyVerdicts(recs); got != want {
				t.Errorf("%s: verdicts before the first completion differ at p%d:\n got  %s\n want %s", c, p, got, want)
			}
			if p == 4 {
				shapes = append(shapes, obs.ShapeString(recs))
			}
		}
		if shapes[0] != shapes[1] {
			t.Errorf("%s: two p4 runs traced different shapes", c)
		}
	}
}

// TestFaultKillResumeEveryBoundary kills the tpch-1 and JOB fault cells
// after every durable checkpoint save in turn, at parallelism 1, 2 and 4,
// and resumes each: the resumed run equals the uninterrupted one in best,
// script, TuningSeconds and FaultReport.
func TestFaultKillResumeEveryBoundary(t *testing.T) {
	kills := 0
	for _, c := range []faultCell{{"tpch-1", lambdatune.Postgres, 1}, {"job", lambdatune.Postgres, 1}} {
		for _, p := range []int{1, 2, 4} {
			db, w, err := lambdatune.Benchmark(c.bench, c.dbms)
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.Tune(w, lambdatune.NewSimulatedLLM(c.seed), faultOpts(c, p))
			if err != nil {
				t.Fatal(err)
			}
			if !want.Faults.Any() {
				t.Fatalf("%s/p%d: no fault fired", c, p)
			}
			for saves := 1; ; saves++ {
				dir := t.TempDir()
				opts := faultOpts(c, p)
				opts.Durability.CheckpointDir = dir
				opts.Faults.CrashAfterSaves = saves
				db, w, _ = lambdatune.Benchmark(c.bench, c.dbms)
				if _, err := db.Tune(w, lambdatune.NewSimulatedLLM(c.seed), opts); err == nil {
					break
				} else if !errors.Is(err, lambdatune.ErrKilled) {
					t.Fatalf("%s/p%d saves=%d: %v", c, p, saves, err)
				}
				kills++
				opts = faultOpts(c, p)
				opts.Durability.CheckpointDir = dir
				opts.Durability.Resume = true
				db, w, _ = lambdatune.Benchmark(c.bench, c.dbms)
				got, err := db.Tune(w, lambdatune.NewSimulatedLLM(c.seed), opts)
				if err != nil {
					t.Fatalf("%s/p%d resume after save %d: %v", c, p, saves, err)
				}
				if got.BestScript != want.BestScript || got.BestSeconds != want.BestSeconds ||
					got.TuningSeconds != want.TuningSeconds || got.Faults != want.Faults {
					t.Errorf("%s/p%d resumed after save %d differs:\n got  best=%v tuning=%v faults=%+v\n want best=%v tuning=%v faults=%+v",
						c, p, saves, got.BestSeconds, got.TuningSeconds, got.Faults,
						want.BestSeconds, want.TuningSeconds, want.Faults)
				}
			}
		}
	}
	t.Logf("%d kill points", kills)
}
