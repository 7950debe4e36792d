package tuner

import (
	"context"
	"fmt"
	"testing"

	"lambdatune/internal/backend"
	"lambdatune/internal/engine"
	"lambdatune/internal/llm"
	"lambdatune/internal/workload"
)

func run(t *testing.T, bench string, flavor engine.Flavor, opts Options) (*Result, *backend.Sim) {
	t.Helper()
	w, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	db := backend.NewSim(flavor, w.Catalog, engine.DefaultHardware)
	tn := New(db, llm.NewSimClient(42), opts)
	res, err := tn.Tune(context.Background(), w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	return res, db
}

func TestTuneEndToEndTPCH(t *testing.T) {
	res, _ := run(t, "tpch-1", engine.Postgres, DefaultOptions())
	if res.Best == nil {
		t.Fatal("no best configuration")
	}
	if res.BestTime <= 0 {
		t.Errorf("best time: %v", res.BestTime)
	}
	if len(res.Candidates) != 5 {
		t.Errorf("candidates: %d", len(res.Candidates))
	}
	if res.TuningSeconds <= res.BestTime {
		t.Errorf("tuning time %v ≤ best workload time %v", res.TuningSeconds, res.BestTime)
	}
}

func TestTunedBeatsDefault(t *testing.T) {
	w := workload.TPCH(1)
	db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
	defaultTime := db.WorkloadSeconds(w.Queries)

	tn := New(db, llm.NewSimClient(42), DefaultOptions())
	res, err := tn.Tune(context.Background(), w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTime >= defaultTime {
		t.Errorf("tuned %v not faster than default %v", res.BestTime, defaultTime)
	}
	// The paper reports multi-x improvements on TPC-H; require at least 1.5x.
	if res.BestTime > defaultTime/1.5 {
		t.Errorf("improvement below 1.5x: %v vs %v", res.BestTime, defaultTime)
	}
}

func TestTuneMySQL(t *testing.T) {
	res, db := run(t, "tpch-1", engine.MySQL, DefaultOptions())
	if res.Best == nil {
		t.Fatal("no best configuration")
	}
	if db.Flavor() != engine.MySQL {
		t.Fatal("flavor")
	}
	// Winning config must speak MySQL (no Postgres parameter names).
	for name := range res.Best.Params {
		if _, ok := engine.Params(engine.MySQL).Lookup(name); !ok {
			t.Errorf("non-MySQL parameter %q in best config", name)
		}
	}
}

func TestTuneDeterministic(t *testing.T) {
	r1, _ := run(t, "tpch-1", engine.Postgres, DefaultOptions())
	r2, _ := run(t, "tpch-1", engine.Postgres, DefaultOptions())
	if r1.Best.ID != r2.Best.ID || r1.BestTime != r2.BestTime {
		t.Errorf("nondeterministic: %s/%v vs %s/%v", r1.Best.ID, r1.BestTime, r2.Best.ID, r2.BestTime)
	}
}

func TestTuneTimeBounded(t *testing.T) {
	// Theorem 4.3 plus reconfiguration overheads: total tuning time stays
	// within a small multiple of k·α·C_best.
	res, _ := run(t, "tpch-1", engine.Postgres, DefaultOptions())
	k := float64(len(res.Candidates))
	bound := 3 * k * DefaultOptions().Selector.Alpha * res.BestTime
	if res.TuningSeconds > bound {
		t.Errorf("tuning %v exceeds 3·k·α·C_best = %v", res.TuningSeconds, bound)
	}
}

func TestTuneEmptyWorkload(t *testing.T) {
	db := backend.NewSim(engine.Postgres, workload.TPCH(1).Catalog, engine.DefaultHardware)
	tn := New(db, llm.NewSimClient(1), DefaultOptions())
	if _, err := tn.Tune(context.Background(), nil); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestTuneJOB(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res, _ := run(t, "job", engine.Postgres, DefaultOptions())
	if res.Best == nil {
		t.Fatal("no best configuration for JOB")
	}
}

// errClient always fails; Tune must surface the error.
type errClient struct{}

func (errClient) Complete(context.Context, string) (string, error) {
	return "", fmt.Errorf("api down")
}
func (errClient) Name() string { return "err" }

func TestTuneLLMError(t *testing.T) {
	w := workload.TPCH(1)
	db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
	tn := New(db, errClient{}, DefaultOptions())
	if _, err := tn.Tune(context.Background(), w.Queries); err == nil {
		t.Error("LLM failure not surfaced")
	}
}

// flakyClient fails the first n calls, then delegates to a SimClient.
type flakyClient struct {
	failures int
	inner    llm.Client
}

func (f *flakyClient) Complete(ctx context.Context, prompt string) (string, error) {
	if f.failures > 0 {
		f.failures--
		return "", fmt.Errorf("transient: rate limited")
	}
	return f.inner.Complete(ctx, prompt)
}
func (f *flakyClient) Name() string { return "flaky" }

func TestTuneRetriesTransientFailures(t *testing.T) {
	w := workload.TPCH(1)
	db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
	// 2 failures; with MaxRetries=2 every sample still succeeds eventually.
	client := &flakyClient{failures: 2, inner: llm.NewSimClient(42)}
	tn := New(db, client, DefaultOptions())
	res, err := tn.Tune(context.Background(), w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best configuration despite retries")
	}
	if len(res.Candidates) == 0 {
		t.Error("no candidates")
	}
}

func TestTuneRetriesExhausted(t *testing.T) {
	w := workload.TPCH(1)
	db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
	// More failures than samples × (1+retries): every sample drops.
	client := &flakyClient{failures: 1000, inner: llm.NewSimClient(42)}
	tn := New(db, client, DefaultOptions())
	if _, err := tn.Tune(context.Background(), w.Queries); err == nil {
		t.Error("exhausted retries not surfaced as error")
	}
}

// garbageClient returns non-SQL; all samples are skipped.
type garbageClient struct{}

func (garbageClient) Complete(context.Context, string) (string, error) {
	return "I am sorry, I cannot help with that.", nil
}
func (garbageClient) Name() string { return "garbage" }

func TestTuneAllSamplesUnparseable(t *testing.T) {
	w := workload.TPCH(1)
	db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
	tn := New(db, garbageClient{}, DefaultOptions())
	if _, err := tn.Tune(context.Background(), w.Queries); err == nil {
		t.Error("all-garbage samples not surfaced as error")
	}
}
