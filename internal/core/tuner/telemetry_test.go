package tuner

import (
	"context"
	"errors"
	"testing"

	"lambdatune/internal/backend"
	"lambdatune/internal/backend/instrumented"
	"lambdatune/internal/core/selector"
	"lambdatune/internal/engine"
	"lambdatune/internal/llm"
	"lambdatune/internal/obs"
	"lambdatune/internal/workload"
)

// telemetryOpts returns default options with a fresh tracer and registry.
func telemetryOpts() (Options, *obs.Tracer, *obs.Registry) {
	opts := DefaultOptions()
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	opts.Trace = tr
	opts.Metrics = reg
	return opts, tr, reg
}

// checkPartialTelemetry asserts the partial-result contract: a run that ends
// with an error still carries the telemetry summary.
func checkPartialTelemetry(t *testing.T, res *Result) {
	t.Helper()
	if res == nil {
		t.Fatal("partial result dropped")
	}
	if res.Telemetry == nil {
		t.Fatal("Result.Telemetry is nil on a partial result")
	}
	if res.Telemetry.Spans == 0 {
		t.Error("Telemetry.Spans = 0, want the spans recorded before the error")
	}
	if res.Telemetry.Metrics == nil {
		t.Error("Telemetry.Metrics is nil with Options.Metrics set")
	}
}

// TestPartialTelemetryOnCancellation: a run cancelled mid-selection returns
// the partial result with Telemetry populated — the telemetry collected up
// to the cancellation must survive.
func TestPartialTelemetryOnCancellation(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		w := workload.TPCH(1)
		sim := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
		ctx, cancel := context.WithCancel(context.Background())
		ca := &cancelAfter{n: 5, cancel: cancel}
		sim.SetExecHook(ca.hook)
		db := instrumented.Wrap(sim)

		opts, _, reg := telemetryOpts()
		opts.Selector.Parallelism = parallelism
		res, err := New(db, llm.NewSimClient(1), opts).Tune(ctx, w.Queries)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: err = %v, want context.Canceled", parallelism, err)
		}
		checkPartialTelemetry(t, res)
		if res.TuningSeconds <= 0 {
			t.Errorf("parallelism=%d: TuningSeconds = %v on a run that executed queries",
				parallelism, res.TuningSeconds)
		}
		if got := reg.Counter("tuner_queries_total").Value(); got <= 0 {
			t.Errorf("parallelism=%d: tuner_queries_total = %v, want > 0", parallelism, got)
		}
		cancel()
	}
}

// samplingCanceler cancels the run after its second LLM call, so Tune hits
// the mid-sampling cancellation path.
type samplingCanceler struct {
	inner  llm.Client
	cancel context.CancelFunc
	calls  int
}

func (c *samplingCanceler) Name() string { return c.inner.Name() }

func (c *samplingCanceler) Complete(ctx context.Context, prompt string) (string, error) {
	c.calls++
	if c.calls == 2 {
		c.cancel()
	}
	return c.inner.Complete(ctx, prompt)
}

// TestPartialTelemetryOnSamplingCancellation: cancellation between LLM
// samples also returns the partial result (with the samples obtained so far)
// instead of dropping it.
func TestPartialTelemetryOnSamplingCancellation(t *testing.T) {
	w := workload.TPCH(1)
	db := instrumented.Wrap(backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts, _, _ := telemetryOpts()
	client := &samplingCanceler{inner: llm.NewSimClient(1), cancel: cancel}
	res, err := New(db, client, opts).Tune(ctx, w.Queries)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkPartialTelemetry(t, res)
	if len(res.Candidates) == 0 {
		t.Error("samples obtained before the cancellation were dropped")
	}
}

// TestPartialTelemetryOnBudgetExhausted: a run that dies with
// ErrBudgetExhausted still hands back the telemetry summary.
func TestPartialTelemetryOnBudgetExhausted(t *testing.T) {
	w := workload.TPCH(1)
	db := instrumented.Wrap(backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware))
	opts, _, _ := telemetryOpts()
	opts.Selector.InitialTimeout = 1e-6
	opts.Selector.Alpha = 2
	opts.Selector.MaxRounds = 1
	opts.Selector.AdaptiveTimeout = false
	res, err := New(db, llm.NewSimClient(1), opts).Tune(context.Background(), w.Queries)
	if !errors.Is(err, selector.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want selector.ErrBudgetExhausted", err)
	}
	checkPartialTelemetry(t, res)
}
