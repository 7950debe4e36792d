// Package service implements the lambdatuned job runner: a long-running
// tuning service that accepts jobs over HTTP, schedules them onto a bounded
// worker pool, and survives crashes. Every job checkpoints its tuning run
// durably (via the public API's CheckpointDir), so a killed or drained
// service re-adopts its in-flight jobs on restart and resumes them from the
// last checkpoint instead of starting over. A panicking job is isolated: it
// becomes a failed job carrying the panic message and stack, and the server
// keeps serving.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lambdatune"
	"lambdatune/internal/obs"
	"lambdatune/internal/runstate"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// The job lifecycle. queued → running → {succeeded, failed, canceled,
// interrupted}; interrupted jobs (drained or crashed mid-run) go back to
// queued on restart and resume from their checkpoint.
const (
	StatusQueued      JobStatus = "queued"
	StatusRunning     JobStatus = "running"
	StatusSucceeded   JobStatus = "succeeded"
	StatusFailed      JobStatus = "failed"
	StatusCanceled    JobStatus = "canceled"
	StatusInterrupted JobStatus = "interrupted"
)

// Terminal reports whether the status is an end state.
func (s JobStatus) Terminal() bool {
	switch s {
	case StatusSucceeded, StatusFailed, StatusCanceled:
		return true
	}
	return false
}

// JobSpec is the client-supplied description of one tuning job.
type JobSpec struct {
	// Benchmark names a built-in workload ("tpch-1", ...).
	Benchmark string `json:"benchmark"`
	// DBMS is "postgres" (default) or "mysql".
	DBMS string `json:"dbms,omitempty"`
	// Seed drives the run's determinism (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Samples is k, the number of LLM candidates (0 = paper default), at
	// most maxSamples.
	Samples int `json:"samples,omitempty"`
	// Parallelism is the evaluation worker count (0/1 = sequential).
	Parallelism int `json:"parallelism,omitempty"`
	// LLMFaultRate / EngineFaultRate inject deterministic faults.
	LLMFaultRate    float64 `json:"llm_fault_rate,omitempty"`
	EngineFaultRate float64 `json:"engine_fault_rate,omitempty"`
	// Tenant attributes the job for rate limiting ("" = anonymous).
	Tenant string `json:"tenant,omitempty"`
}

// maxSamples bounds JobSpec.Samples: 20× the paper's k = 5 and 5× the
// largest k any experiment uses. A job keeps every candidate, warning and
// LLM span for its whole life and the daemon keeps its trace afterwards,
// about 21 KB per sample, so an unbounded k lets one spec exhaust the
// memory every tenant's jobs share.
const maxSamples = 100

// Validate rejects specs the service cannot run.
func (s *JobSpec) Validate() error {
	if s.Benchmark == "" {
		return fmt.Errorf("benchmark is required")
	}
	ok := false
	for _, b := range lambdatune.BenchmarkNames() {
		if b == s.Benchmark {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("unknown benchmark %q (have: %s)",
			s.Benchmark, strings.Join(lambdatune.BenchmarkNames(), ", "))
	}
	switch strings.ToLower(s.DBMS) {
	case "", "postgres", "mysql":
	default:
		return fmt.Errorf("unknown dbms %q", s.DBMS)
	}
	if s.LLMFaultRate < 0 || s.LLMFaultRate > 1 || s.EngineFaultRate < 0 || s.EngineFaultRate > 1 {
		return fmt.Errorf("fault rates must be in [0,1]")
	}
	if s.Samples < 0 || s.Parallelism < 0 {
		return fmt.Errorf("samples and parallelism must be >= 0")
	}
	if s.Samples > maxSamples {
		return fmt.Errorf("samples must be <= %d", maxSamples)
	}
	return nil
}

func (s *JobSpec) flavor() lambdatune.DBMS {
	if strings.EqualFold(s.DBMS, "mysql") {
		return lambdatune.MySQL
	}
	return lambdatune.Postgres
}

func (s *JobSpec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// JobResult is the subset of a tuning result the service reports.
type JobResult struct {
	BestScript     string  `json:"best_script"`
	BestSeconds    float64 `json:"best_seconds"`
	DefaultSeconds float64 `json:"default_seconds"`
	Speedup        float64 `json:"speedup"`
	TuningSeconds  float64 `json:"tuning_seconds"`
	Candidates     int     `json:"candidates"`
	Resumed        bool    `json:"resumed"`
}

// Job is one tuning job's full record — the unit the service persists on
// every transition, as one fsync'd line appended to the job journal,
// <DataDir>/jobs.log.
type Job struct {
	ID     string    `json:"id"`
	Spec   JobSpec   `json:"spec"`
	Status JobStatus `json:"status"`
	// Error / Stack carry a failed job's cause; Stack is non-empty only for
	// panics — the panic is isolated to the job, never the server.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
	// Resumes counts how many times the job was re-adopted from a checkpoint.
	Resumes int        `json:"resumes,omitempty"`
	Result  *JobResult `json:"result,omitempty"`

	// userCanceled distinguishes a client cancel from a drain interrupt.
	userCanceled bool
	cancel       context.CancelFunc
	done         chan struct{}

	// trace retains the job's span recorder for the /v1/jobs/{id}/trace
	// endpoints; traceHandle is the public wrapper the tuning run records
	// into. Both are nil while the job is queued, when tracing is disabled,
	// or after retention evicted the completed trace.
	trace       *obs.Tracer
	traceHandle *lambdatune.Trace

	// persistGen numbers record snapshots (under Manager.mu); persistWrote
	// is the newest one the journal took (under the journal's mutex), so the
	// appends happening outside Manager.mu never regress the record (see
	// Manager.persistLocked).
	persistGen   uint64
	persistWrote uint64
}

// Config configures a Manager. Zero values get production defaults.
type Config struct {
	// DataDir is the durable root. It holds the job journal, jobs.log, and
	// one subdirectory per job for the run's checkpoints, created by the
	// job's first checkpoint. A job directory holding a job.json from an
	// older build is imported into the journal at Open.
	DataDir string
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// QueueDepth bounds the backlog of queued jobs (default 64); a full
	// queue rejects enqueues with ErrQueueFull.
	QueueDepth int
	// RateBurst / RatePerSecond form the per-tenant token bucket consulted
	// on enqueue (burst 0 = unlimited).
	RateBurst     int
	RatePerSecond float64
	// Runtime, when non-nil, is the shared tuning runtime every job runs on:
	// jobs of the same tenant over the same benchmark share plan caches and
	// schedule memos (wall-time savings only — per-job results are identical
	// to isolated runs), while breaker state and memo namespaces stay
	// isolated per tenant. nil creates a private runtime owned (and closed)
	// by the Manager.
	Runtime *lambdatune.Runtime
	// Metrics receives the service_* series (nil = discard).
	Metrics *obs.Registry
	// Logger receives structured operational logs: job lifecycle transitions,
	// panic recoveries, trace evictions, and persistence failures, every
	// job-scoped line carrying consistent job_id/tenant/run_id keys. nil
	// discards.
	Logger *slog.Logger
	// TraceRetention bounds how many completed jobs keep their span trace in
	// memory for the trace endpoints: 0 means the default (64), oldest
	// completed trace evicted first; negative disables per-job trace capture
	// entirely. A running job always keeps its live trace regardless of the
	// bound.
	TraceRetention int
}

// Typed service errors, matchable with errors.Is.
var (
	// ErrQueueFull reports a bounded-queue overflow on enqueue.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrRateLimited reports a per-tenant rate-limit rejection on enqueue.
	ErrRateLimited = errors.New("service: tenant rate limited")
	// ErrDraining reports an enqueue or cancel against a draining server.
	ErrDraining = errors.New("service: draining")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
)

// Manager owns the job table, the bounded scheduler, and the durable state
// under DataDir.
type Manager struct {
	cfg Config
	log *slog.Logger

	// journal is the durable job-record log; see journal.go.
	journal *journal

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order, for listing
	seq      int
	draining bool
	subs     map[string][]chan string
	// traceDone is the FIFO of completed jobs whose traces are retained;
	// beyond cfg.TraceRetention the oldest is evicted (trace set to nil).
	traceDone []string

	queue   chan string
	wg      sync.WaitGroup
	rootCtx context.Context
	stop    context.CancelFunc

	// rt is the shared tuning runtime all jobs execute on; ownRuntime marks
	// a Manager-created runtime that Drain must close.
	rt         *lambdatune.Runtime
	ownRuntime bool

	limiter *tenantLimiter

	// traceCheckTick counts completed traced jobs for the sampled telemetry
	// self-check (see traceSelfCheckEvery).
	traceCheckTick atomic.Uint64

	// beforeRun, when set, runs inside the job goroutine right before the
	// tuning run starts — the panic-isolation and drain tests hook in here.
	beforeRun func(job *Job, ctx context.Context)
}

// traceSelfCheckEvery samples the post-completion trace schema self-check:
// the first completed trace and every Nth after are exported and run through
// ValidateRecords. Schema breaks are systematic (an instrumentation-site or
// exporter bug corrupts every trace, not one), so sampling catches them just
// as surely while keeping the per-job telemetry cost at capture + summary —
// a full export per completed job is measurable drag on a busy daemon (E17).
const traceSelfCheckEvery = 16

// Open creates a Manager on DataDir, re-adopting every job a previous
// process left behind: terminal jobs are loaded read-only; queued, running,
// and interrupted jobs are re-queued, resuming from their checkpoint when
// one exists. It rewrites the job journal compacted and keeps it open until
// a clean Drain. Call Close or Drain to stop it.
func Open(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: DataDir is required")
	}
	if cfg.TraceRetention == 0 {
		cfg.TraceRetention = 64
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		log:     resolveLogger(cfg.Logger),
		jobs:    map[string]*Job{},
		subs:    map[string][]chan string{},
		rootCtx: ctx,
		stop:    stop,
		rt:      cfg.Runtime,
		limiter: newTenantLimiter(cfg.RateBurst, cfg.RatePerSecond),
	}
	if m.rt == nil {
		m.rt = lambdatune.NewRuntime(lambdatune.RuntimeOptions{})
		m.ownRuntime = true
	}
	adopt, err := m.scan()
	if err != nil {
		stop()
		return nil, err
	}
	// The queue must hold every re-adopted job on top of the configured
	// backlog, or a restart with a deep backlog would deadlock here.
	m.queue = make(chan string, cfg.QueueDepth+len(adopt))
	m.readopt(adopt)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// scan loads every persisted job from DataDir and opens the journal for
// appends, returning the unfinished jobs a previous process left behind.
func (m *Manager) scan() ([]*Job, error) {
	jl, jobs, err := openJournal(m.cfg.DataDir, m.log)
	if err != nil {
		return nil, err
	}
	m.journal = jl
	var adopt []*Job
	for _, job := range jobs {
		job.done = make(chan struct{})
		if job.Status.Terminal() {
			close(job.done)
		}
		m.jobs[job.ID] = job
		m.order = append(m.order, job.ID)
		if n := seqOf(job.ID); n > m.seq {
			m.seq = n
		}
		if !job.Status.Terminal() {
			adopt = append(adopt, job)
		}
	}
	sort.Strings(m.order)
	sort.Slice(adopt, func(i, j int) bool { return adopt[i].ID < adopt[j].ID })
	return adopt, nil
}

// readopt re-queues the unfinished jobs a previous process left behind.
func (m *Manager) readopt(adopt []*Job) {
	for _, job := range adopt {
		// A job that was running or interrupted when the process died has a
		// checkpoint to resume from; a queued one simply starts.
		if job.Status != StatusQueued {
			job.Resumes++
		}
		job.Status = StatusQueued
		m.persistLocked(job)()
		m.queue <- job.ID
		m.counter("service_jobs_readopted_total").Inc()
		m.jobLog(job).Info("job readopted",
			"benchmark", job.Spec.Benchmark, "seed", job.Spec.seed(), "resumes", job.Resumes)
	}
}

func seqOf(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

func (m *Manager) counter(name string) *obs.Counter { return m.cfg.Metrics.Counter(name) }
func (m *Manager) gauge(name string) *obs.Gauge     { return m.cfg.Metrics.Gauge(name) }

// Enqueue validates, persists, and queues a new job, returning its ID.
func (m *Manager) Enqueue(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("service: invalid spec: %w", err)
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if !m.limiter.allow(spec.Tenant) {
		m.mu.Unlock()
		m.counter("service_rate_limited_total").Inc()
		m.log.Warn("enqueue rate limited", "tenant", spec.Tenant, "benchmark", spec.Benchmark)
		return nil, fmt.Errorf("%w: tenant %q", ErrRateLimited, spec.Tenant)
	}
	m.seq++
	job := &Job{
		ID:     fmt.Sprintf("job-%06d", m.seq),
		Spec:   spec,
		Status: StatusQueued,
		done:   make(chan struct{}),
	}
	// The non-blocking send happens under the lock so it is serialized with
	// Drain's close of the queue — never a send on a closed channel.
	select {
	case m.queue <- job.ID:
	default:
		m.seq--
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	flush := m.persistLocked(job)
	// Snapshot before unlocking: a worker may grab the job the instant the
	// lock drops.
	snap := job.clone()
	m.mu.Unlock()
	flush()
	m.counter("service_jobs_enqueued_total").Inc()
	m.jobLog(job).Info("job enqueued", "benchmark", spec.Benchmark, "seed", spec.seed())
	return snap, nil
}

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return job.clone(), nil
}

// List returns snapshots of all jobs in ID order.
func (m *Manager) List() []*Job {
	jobs, _ := m.ListPage("", 0)
	return jobs
}

// ListPage returns up to limit job snapshots whose IDs sort strictly after
// the cursor, in ID order, plus the cursor for the next page ("" once the
// listing is exhausted). limit <= 0 means unbounded. Job IDs are zero-padded
// monotone sequence numbers, so m.order — sorted once on scan and appended
// in sequence order afterwards — stays sorted and the cursor resolves with a
// binary search instead of a copy of the whole table. Pagination keeps a
// thousand-job daemon's poll loops from cloning every record per request.
func (m *Manager) ListPage(after string, limit int) ([]*Job, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := 0
	if after != "" {
		start = sort.SearchStrings(m.order, after)
		if start < len(m.order) && m.order[start] == after {
			start++
		}
	}
	end := len(m.order)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	out := make([]*Job, 0, end-start)
	for _, id := range m.order[start:end] {
		out = append(out, m.jobs[id].clone())
	}
	next := ""
	if end < len(m.order) && end > start {
		next = m.order[end-1]
	}
	return out, next
}

// Cancel stops a queued or running job. Canceling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	flush := func() {}
	terminal := false
	switch job.Status {
	case StatusQueued:
		job.Status = StatusCanceled
		job.userCanceled = true
		terminal = true
		flush = m.persistLocked(job)
		m.counter("service_jobs_canceled_total").Inc()
	case StatusRunning:
		job.userCanceled = true
		if job.cancel != nil {
			job.cancel()
		}
	}
	snap := job.clone()
	m.mu.Unlock()
	// As in runJob: the terminal record reaches the disk before waiters wake.
	flush()
	if terminal {
		close(job.done)
		// The job never reaches runJob, which closes the subscribers of
		// every job that runs.
		m.closeSubs(id)
	}
	return snap, nil
}

// Wait blocks until the job leaves the running/queued states or ctx is done.
func (m *Manager) Wait(ctx context.Context, id string) (*Job, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	select {
	case <-job.done:
		return m.Get(id)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Subscribe returns a channel of the job's live progress lines. The channel
// closes when the job finishes. Call the returned cancel to unsubscribe.
func (m *Manager) Subscribe(id string) (<-chan string, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan string, 64)
	if job.Status.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	m.subs[id] = append(m.subs[id], ch)
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		subs := m.subs[id]
		for i, c := range subs {
			if c == ch {
				m.subs[id] = append(subs[:i], subs[i+1:]...)
				close(c)
				return
			}
		}
	}
	return ch, cancel, nil
}

// publish fans one progress line out to the job's subscribers (dropping
// lines to slow consumers rather than blocking the run). It sends under
// m.mu, which every close of a subscriber channel holds too, so a client
// unsubscribing mid-stream can never leave it sending on a closed channel.
// The sends never block.
func (m *Manager) publish(id, line string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ch := range m.subs[id] {
		select {
		case ch <- line:
		default:
		}
	}
}

// closeSubs closes the finished job's subscriber channels, under m.mu like
// every send and every unsubscribe.
func (m *Manager) closeSubs(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ch := range m.subs[id] {
		close(ch)
	}
	delete(m.subs, id)
}

// Draining reports whether the server is shutting down (readiness).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain gracefully stops the manager: no new enqueues, every running job is
// cancelled — its selector writes a final mid-round checkpoint on the way
// out — and marked interrupted, so a restarted service re-adopts and
// resumes it. Drain waits for the workers to finish or ctx to expire.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	for _, job := range m.jobs {
		if job.Status == StatusRunning && job.cancel != nil {
			job.cancel()
		}
	}
	// Closed under the lock, serialized with Enqueue's send.
	close(m.queue)
	m.mu.Unlock()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		m.stop()
		if m.ownRuntime {
			m.rt.Close()
		}
		return ctx.Err()
	}
	// Queued jobs that never started stay queued on disk; the next process
	// picks them up.
	m.stop()
	if m.ownRuntime {
		m.rt.Close()
	}
	if err := m.journal.close(); err != nil {
		m.log.Error("journal close failed", "error", err)
	}
	return nil
}

// Close is Drain with a short grace period, for tests and defers.
func (m *Manager) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return m.Drain(ctx)
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for id := range m.queue {
		m.runJob(id)
	}
}

// runJob executes one job with panic isolation: a panic anywhere inside the
// tuning run becomes a failed job carrying the stack — the worker, and the
// server, keep going.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok || job.Status != StatusQueued {
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.rootCtx)
	defer cancel()
	job.Status = StatusRunning
	job.cancel = cancel
	if m.cfg.TraceRetention >= 0 {
		// The trace exists from the instant the job is running, so the trace
		// endpoints can follow the run live from its first span.
		job.traceHandle = lambdatune.NewTrace()
		job.trace = job.traceHandle.Tracer()
	}
	flush := m.persistLocked(job)
	m.mu.Unlock()
	flush()
	jlog := m.jobLog(job)
	jlog.Info("job running", "benchmark", job.Spec.Benchmark, "seed", job.Spec.seed(), "resumes", job.Resumes)
	m.gauge("service_jobs_running").Add(1)
	defer m.gauge("service_jobs_running").Add(-1)

	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
				stack := debug.Stack()
				m.mu.Lock()
				job.Stack = string(stack)
				m.mu.Unlock()
				// Surface the recovery beyond the persisted job record: a
				// counter to alert on and a structured error log with the
				// job's identity keys, visible without polling the job API.
				m.counter("service_job_panics_total").Inc()
				jlog.Error("job panicked", "panic", fmt.Sprint(r), "stack", string(stack))
			}
		}()
		if m.beforeRun != nil {
			m.beforeRun(job, ctx)
		}
		return m.execute(ctx, job)
	}()

	m.mu.Lock()
	job.cancel = nil
	switch {
	case err == nil:
		job.Status = StatusSucceeded
		m.counter("service_jobs_succeeded_total").Inc()
	case job.userCanceled:
		job.Status = StatusCanceled
		job.Error = ""
		m.counter("service_jobs_canceled_total").Inc()
	case errors.Is(err, context.Canceled) && m.draining:
		// Drained mid-run: the checkpoint written on the way out makes the
		// job resumable; a restarted service re-adopts it.
		job.Status = StatusInterrupted
		job.Error = ""
		m.counter("service_jobs_interrupted_total").Inc()
	default:
		job.Status = StatusFailed
		job.Error = err.Error()
		m.counter("service_jobs_failed_total").Inc()
	}
	m.retainTraceLocked(job)
	flush = m.persistLocked(job)
	status := job.Status
	tr := job.trace
	m.mu.Unlock()
	// Flush before waking waiters: Wait's contract is that a returned
	// terminal job is already durable, so a process that reads the journal
	// the instant Wait returns sees the terminal record.
	flush()
	close(job.done)
	m.closeSubs(id)
	if status == StatusSucceeded && tr != nil {
		// Sampled telemetry self-check: a completed job's export must satisfy
		// the schema the /trace endpoint advertises (ValidateRecords). The
		// first trace and every traceSelfCheckEvery-th after are checked.
		if n := m.traceCheckTick.Add(1); n == 1 || n%traceSelfCheckEvery == 0 {
			if verr := obs.ValidateRecords(tr.Records()); verr != nil {
				jlog.Error("trace schema validation failed", "error", verr)
			}
		}
	}
	if status == StatusFailed {
		jlog.Error("job finished", "status", string(status), "error", job.Error)
	} else {
		jlog.Info("job finished", "status", string(status))
	}
}

// retainTraceLocked moves a finishing job's trace into the bounded retention
// window: the newest cfg.TraceRetention completed traces stay fetchable, the
// oldest beyond that bound is dropped (its jobs answer 409 trace_unavailable
// from then on). Callers hold m.mu.
func (m *Manager) retainTraceLocked(job *Job) {
	if job.trace == nil {
		return
	}
	m.traceDone = append(m.traceDone, job.ID)
	for len(m.traceDone) > m.cfg.TraceRetention {
		victim := m.traceDone[0]
		m.traceDone = m.traceDone[1:]
		if j, ok := m.jobs[victim]; ok {
			j.trace = nil
			j.traceHandle = nil
		}
		m.counter("service_traces_evicted_total").Inc()
		m.log.Info("trace evicted", "job_id", victim, "retention", m.cfg.TraceRetention)
	}
	m.gauge("service_traces_retained").Set(float64(len(m.traceDone)))
}

// progressWriter adapts the manager's pub/sub to the tuning run's
// line-oriented Progress writer.
type progressWriter struct {
	m  *Manager
	id string
	// buf holds a partial line between writes.
	buf strings.Builder
}

func (w *progressWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	for {
		s := w.buf.String()
		nl := strings.IndexByte(s, '\n')
		if nl < 0 {
			break
		}
		w.m.publish(w.id, s[:nl])
		w.buf.Reset()
		w.buf.WriteString(s[nl+1:])
	}
	return len(p), nil
}

// execute runs the tuning pipeline for one job on the shared runtime,
// checkpointing into the job's directory (created by the first checkpoint)
// and resuming when a checkpoint is already there.
func (m *Manager) execute(ctx context.Context, job *Job) error {
	spec := job.Spec
	db, w, err := m.rt.Benchmark(spec.Benchmark, spec.flavor())
	if err != nil {
		return err
	}
	jobDir := filepath.Join(m.cfg.DataDir, job.ID)
	opts := lambdatune.DefaultOptions()
	opts.Seed = spec.seed()
	if spec.Samples > 0 {
		opts.Samples = spec.Samples
	}
	opts.Evaluation.Parallelism = spec.Parallelism
	opts.Tenant = spec.Tenant
	opts.Durability.CheckpointDir = jobDir
	opts.Observability.Progress = &progressWriter{m: m, id: job.ID}
	m.mu.Lock()
	if job.traceHandle != nil {
		// Tracing is passive — the traced run selects the same configuration,
		// byte for byte, as an untraced one — so every job can afford it.
		opts.Observability.Trace = job.traceHandle
	}
	m.mu.Unlock()
	if spec.LLMFaultRate > 0 || spec.EngineFaultRate > 0 {
		opts.Faults = &lambdatune.FaultPlan{LLMRate: spec.LLMFaultRate, EngineRate: spec.EngineFaultRate, Seed: opts.Seed}
	}
	// Resume when a previous attempt left a checkpoint behind: the live
	// generation, or only the previous one when a save was killed between
	// its two renames.
	if runstate.NewStore(jobDir, runIDOf(&spec)).Exists() {
		opts.Durability.Resume = true
	}

	res, err := m.rt.TuneContext(ctx, db, w, lambdatune.NewSimulatedLLM(opts.Seed), opts)
	if err != nil {
		return err
	}
	m.mu.Lock()
	job.Result = &JobResult{
		BestScript:     res.BestScript,
		BestSeconds:    res.BestSeconds,
		DefaultSeconds: res.DefaultSeconds,
		Speedup:        res.Speedup(),
		TuningSeconds:  res.TuningSeconds,
		Candidates:     res.Candidates,
		Resumed:        res.Resumed,
	}
	m.mu.Unlock()
	return nil
}

// persistLocked snapshots the job record under m.mu and returns a closure
// that appends it to the journal and fsyncs. Call the closure after
// releasing m.mu, so the fsync never stalls Enqueue/Get/List behind the
// manager's one global lock. Marshaling stays under the lock (it must see a
// consistent record); the closures serialize on the journal's mutex with
// newest-snapshot-wins ordering, so concurrent flushes of one job can never
// regress the on-disk record. Persistence failures are logged, not fatal:
// the in-memory state stays authoritative for the life of the process.
func (m *Manager) persistLocked(job *Job) func() {
	job.persistGen++
	gen := job.persistGen
	data, err := json.Marshal(job)
	if err != nil {
		m.log.Error("persist failed", "job_id", job.ID, "error", err)
		return func() {}
	}
	return func() {
		if err := m.journal.persist(job, gen, data); err != nil {
			m.log.Error("persist failed", "job_id", job.ID, "error", err)
		}
	}
}

// clone snapshots a job for hand-out (the internal fields stay behind).
func (j *Job) clone() *Job {
	cp := Job{
		ID: j.ID, Spec: j.Spec, Status: j.Status,
		Error: j.Error, Stack: j.Stack, Resumes: j.Resumes,
	}
	if j.Result != nil {
		r := *j.Result
		cp.Result = &r
	}
	return &cp
}
