package service

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lambdatune"
	"lambdatune/internal/obs"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		DataDir: t.TempDir(),
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(testLogWriter{t}, nil)),
	}
}

// testLogWriter routes daemon log lines through t.Log, so a failing test
// shows them.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func openManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

func waitJob(t *testing.T, m *Manager, id string) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return job
}

// reference runs the same tuning the service would run for spec, through the
// public API, and returns the result.
func reference(t *testing.T, spec JobSpec) *lambdatune.Result {
	t.Helper()
	db, w, err := lambdatune.Benchmark(spec.Benchmark, spec.flavor())
	if err != nil {
		t.Fatal(err)
	}
	opts := lambdatune.DefaultOptions()
	opts.Seed = spec.seed()
	if spec.Samples > 0 {
		opts.Samples = spec.Samples
	}
	opts.Evaluation.Parallelism = spec.Parallelism
	res, err := db.Tune(w, lambdatune.NewSimulatedLLM(opts.Seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEnqueueRunsToSuccess(t *testing.T) {
	cfg := testConfig(t)
	m := openManager(t, cfg)

	spec := JobSpec{Benchmark: "tpch-1", Seed: 1}
	job, err := m.Enqueue(spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Status != StatusQueued {
		t.Fatalf("unexpected fresh job: %+v", job)
	}

	done := waitJob(t, m, job.ID)
	if done.Status != StatusSucceeded {
		t.Fatalf("status = %s (error %q)", done.Status, done.Error)
	}
	if done.Result == nil {
		t.Fatal("no result on succeeded job")
	}
	want := reference(t, spec)
	if done.Result.BestScript != want.BestScript {
		t.Errorf("service best script differs from direct API run:\n--- want\n%s\n--- got\n%s",
			want.BestScript, done.Result.BestScript)
	}
	if done.Result.BestSeconds != want.BestSeconds || done.Result.TuningSeconds != want.TuningSeconds {
		t.Errorf("times differ: got (%v, %v) want (%v, %v)",
			done.Result.BestSeconds, done.Result.TuningSeconds, want.BestSeconds, want.TuningSeconds)
	}

	// The job record is durable and readable by the next process.
	data, err := os.ReadFile(filepath.Join(cfg.DataDir, job.ID, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	var persisted Job
	if err := json.Unmarshal(data, &persisted); err != nil {
		t.Fatal(err)
	}
	if persisted.Status != StatusSucceeded || persisted.Result == nil {
		t.Errorf("persisted record not terminal: status %q, result %+v", persisted.Status, persisted.Result)
	}
}

func TestEnqueueRejectsBadSpecs(t *testing.T) {
	m := openManager(t, testConfig(t))
	for _, spec := range []JobSpec{
		{},
		{Benchmark: "no-such-benchmark"},
		{Benchmark: "tpch-1", DBMS: "oracle"},
		{Benchmark: "tpch-1", LLMFaultRate: 1.5},
		{Benchmark: "tpch-1", Samples: -1},
	} {
		if _, err := m.Enqueue(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// TestPanicIsolation: a panicking job becomes a failed job with the stack
// recorded — and the worker pool keeps serving new jobs.
func TestPanicIsolation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Metrics = obs.NewRegistry()
	m := openManager(t, cfg)
	m.beforeRun = func(job *Job, _ context.Context) {
		if job.Spec.Tenant == "boom" {
			panic("injected test panic")
		}
	}

	bad, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Tenant: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, m, bad.ID)
	if done.Status != StatusFailed {
		t.Fatalf("panicking job status = %s, want failed", done.Status)
	}
	if !strings.Contains(done.Error, "injected test panic") {
		t.Errorf("error %q does not carry the panic message", done.Error)
	}
	if !strings.Contains(done.Stack, "runJob") && !strings.Contains(done.Stack, "goroutine") {
		t.Errorf("no stack captured: %q", done.Stack)
	}
	if got := cfg.Metrics.Counter("service_job_panics_total").Value(); got != 1 {
		t.Errorf("panic counter = %v, want 1", got)
	}

	// The server survived: a healthy job still runs to completion.
	good, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"})
	if err != nil {
		t.Fatal(err)
	}
	if done := waitJob(t, m, good.ID); done.Status != StatusSucceeded {
		t.Fatalf("follow-up job status = %s (error %q)", done.Status, done.Error)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	m := openManager(t, cfg)
	started := make(chan string, 8)
	gate := make(chan struct{})
	m.beforeRun = func(job *Job, ctx context.Context) {
		started <- job.ID
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}

	a, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // a is running (blocked at the gate), b is queued

	// Cancel the queued job: immediate terminal state, never runs.
	if _, err := m.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	if job := waitJob(t, m, b.ID); job.Status != StatusCanceled {
		t.Fatalf("queued cancel: status = %s", job.Status)
	}

	// Cancel the running job: its context unblocks the gate wait and the
	// run is recorded as canceled, not failed.
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if job := waitJob(t, m, a.ID); job.Status != StatusCanceled {
		t.Fatalf("running cancel: status = %s (error %q)", job.Status, job.Error)
	}

	if _, err := m.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown job: %v", err)
	}
}

func TestQueueFull(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	m := openManager(t, cfg)
	started := make(chan string, 8)
	gate := make(chan struct{})
	defer close(gate)
	m.beforeRun = func(job *Job, ctx context.Context) {
		started <- job.ID
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}

	if _, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"}); err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied
	if _, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"}); err != nil {
		t.Fatal(err) // fills the queue
	}
	if _, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
}

func TestTenantRateLimit(t *testing.T) {
	cfg := testConfig(t)
	cfg.RateBurst = 2
	cfg.RatePerSecond = 100
	m := openManager(t, cfg)
	now := time.Unix(0, 0)
	m.limiter.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if _, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Tenant: "acme"}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if _, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Tenant: "acme"}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("expected ErrRateLimited, got %v", err)
	}
	// Another tenant has its own bucket.
	if _, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Tenant: "other"}); err != nil {
		t.Fatalf("other tenant limited: %v", err)
	}
	// Refill restores the exhausted tenant.
	now = now.Add(time.Second)
	if _, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Tenant: "acme"}); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

// TestDrainInterruptsRunningJob: draining cancels the in-flight run, records
// it as interrupted (not failed), and a fresh manager on the same DataDir
// re-adopts and finishes it.
func TestDrainInterruptsRunningJob(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	m.beforeRun = func(_ *Job, ctx context.Context) {
		close(started)
		<-ctx.Done() // hold the job mid-flight until drain cancels it
	}

	spec := JobSpec{Benchmark: "tpch-1"}
	job, err := m.Enqueue(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	got, err := m.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusInterrupted {
		t.Fatalf("after drain: status = %s (error %q), want interrupted", got.Status, got.Error)
	}
	if !m.Draining() {
		t.Error("Draining() false after Drain")
	}
	if _, err := m.Enqueue(spec); !errors.Is(err, ErrDraining) {
		t.Errorf("enqueue while draining: %v", err)
	}

	// "Restart": a new manager re-adopts the interrupted job and runs it.
	m2 := openManager(t, cfg)
	done := waitJob(t, m2, job.ID)
	if done.Status != StatusSucceeded {
		t.Fatalf("re-adopted job status = %s (error %q)", done.Status, done.Error)
	}
	if done.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", done.Resumes)
	}
	want := reference(t, spec)
	if done.Result.BestScript != want.BestScript || done.Result.BestSeconds != want.BestSeconds {
		t.Errorf("re-adopted result differs from direct run: got (%v) want (%v)",
			done.Result.BestSeconds, want.BestSeconds)
	}
}

// TestReadoptResumesFromCheckpoint simulates the full crash story: a
// previous process died mid-run (job.json says running, a real mid-run
// checkpoint is on disk), and a fresh manager re-adopts the job and resumes
// it from the checkpoint to the same answer an uninterrupted run produces.
func TestReadoptResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Benchmark: "tpch-1", Seed: 1}
	jobID := "job-000042"
	jobDir := filepath.Join(dir, jobID)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}

	// Leave a genuine mid-run checkpoint behind by crashing a direct run at
	// a chaos kill point, with the exact options the service would use.
	db, w, err := lambdatune.Benchmark(spec.Benchmark, spec.flavor())
	if err != nil {
		t.Fatal(err)
	}
	opts := lambdatune.DefaultOptions()
	opts.Seed = spec.seed()
	opts.Durability.CheckpointDir = jobDir
	opts.Faults = &lambdatune.FaultPlan{Seed: opts.Seed, CrashAfterRound: 2}
	if _, err := db.Tune(w, lambdatune.NewSimulatedLLM(opts.Seed), opts); !errors.Is(err, lambdatune.ErrKilled) {
		t.Fatalf("expected ErrKilled, got %v", err)
	}

	// The dead process's job record.
	rec, err := json.Marshal(&Job{ID: jobID, Spec: spec, Status: StatusRunning})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "job.json"), rec, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	cfg.DataDir = dir
	m := openManager(t, cfg)
	done := waitJob(t, m, jobID)
	if done.Status != StatusSucceeded {
		t.Fatalf("resumed job status = %s (error %q)", done.Status, done.Error)
	}
	if done.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", done.Resumes)
	}
	if !done.Result.Resumed {
		t.Error("result does not report Resumed — the checkpoint was ignored")
	}
	want := reference(t, spec)
	if done.Result.BestScript != want.BestScript {
		t.Errorf("resumed best script differs:\n--- want\n%s\n--- got\n%s",
			want.BestScript, done.Result.BestScript)
	}
	if done.Result.BestSeconds != want.BestSeconds || done.Result.TuningSeconds != want.TuningSeconds {
		t.Errorf("resumed times differ: got (%v, %v) want (%v, %v)",
			done.Result.BestSeconds, done.Result.TuningSeconds, want.BestSeconds, want.TuningSeconds)
	}
	// ID continuity: new jobs never collide with adopted ones.
	next, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID <= jobID {
		t.Errorf("new job ID %s does not continue after adopted %s", next.ID, jobID)
	}
}

func TestSubscribeStreamsProgress(t *testing.T) {
	m := openManager(t, testConfig(t))
	job, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Subscribe(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var lines []string
	for line := range ch {
		lines = append(lines, line)
	}
	// The channel closed, so the job is terminal; lines may be empty if the
	// run outpaced the subscription, but normally the selector narrates.
	if job := waitJob(t, m, job.ID); job.Status != StatusSucceeded {
		t.Fatalf("job status = %s", job.Status)
	}
	t.Logf("streamed %d progress lines", len(lines))
}

func TestSeqOf(t *testing.T) {
	for id, want := range map[string]int{"job-000042": 42, "job-7": 7, "weird": 0, "": 0} {
		if got := seqOf(id); got != want {
			t.Errorf("seqOf(%q) = %d, want %d", id, got, want)
		}
	}
}
