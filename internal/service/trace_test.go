package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdatune/internal/obs"
	"lambdatune/internal/runstate"
)

// TestTraceEndpointCompletedJob covers the happy path: a finished job serves
// a schema-valid JSONL trace, a JSON phase summary, and both typed client
// helpers agree with the raw endpoints.
func TestTraceEndpointCompletedJob(t *testing.T) {
	m, srv := newTestServer(t)
	job, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, m, job.ID); got.Status != StatusSucceeded {
		t.Fatalf("job status = %s (%s)", got.Status, got.Error)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Lambdatune-Trace"); got != "complete" {
		t.Errorf("Lambdatune-Trace = %q, want complete", got)
	}
	recs, err := obs.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateRecords(recs); err != nil {
		t.Fatalf("trace endpoint served invalid trace: %v", err)
	}
	if len(recs) < 10 {
		t.Fatalf("suspiciously small trace: %d spans", len(recs))
	}

	// The summary endpoint condenses the same records.
	var sum TraceSummary
	sresp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("GET summary: %d", sresp.StatusCode)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.JobID != job.ID || sum.Status != StatusSucceeded || sum.Partial {
		t.Errorf("summary header wrong: %+v", sum)
	}
	if sum.Spans != len(recs) || len(sum.Phases) == 0 {
		t.Errorf("summary spans=%d phases=%d (trace has %d spans)", sum.Spans, len(sum.Phases), len(recs))
	}

	// Typed client helpers.
	c := &Client{BaseURL: srv.URL}
	crecs, err := c.Trace(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(crecs) != len(recs) {
		t.Errorf("client trace %d spans, endpoint %d", len(crecs), len(recs))
	}
	csum, err := c.TraceSummary(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if csum.Spans != sum.Spans || len(csum.Phases) != len(sum.Phases) {
		t.Errorf("client summary %+v != endpoint %+v", csum, sum)
	}
}

// TestTraceEndpointAvailability pins the status-code contract: 404 for
// unknown jobs, 409 trace_unavailable for a queued job, 200 partial for a
// running one, and 200 complete for a failed (panicked) one.
func TestTraceEndpointAvailability(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	release := make(chan struct{})
	started := make(chan string, 1)
	m := openManager(t, cfg)
	m.beforeRun = func(job *Job, ctx context.Context) {
		if job.Spec.Seed == 99 {
			panic("trace-test boom")
		}
		started <- job.ID
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	srv := newServerFor(t, m)

	// Unknown job: 404.
	assertTraceErr(t, srv, "job-999999", http.StatusNotFound, CodeNotFound)

	running, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// The running job serves its (possibly empty) partial trace.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + running.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("running job trace: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Lambdatune-Trace"); got != "partial" {
		t.Errorf("running job Lambdatune-Trace = %q, want partial", got)
	}

	// The queued job has no trace yet: 409 with the stable code, and the
	// typed client surfaces it as *APIError.
	assertTraceErr(t, srv, queued.ID, http.StatusConflict, CodeTraceUnavailable)
	c := &Client{BaseURL: srv.URL}
	_, err = c.Trace(queued.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeTraceUnavailable || !apiErr.Retryable {
		t.Fatalf("client trace on queued job: %v", err)
	}

	close(release)
	waitJob(t, m, running.ID)
	waitJob(t, m, queued.ID)

	// A failed (panicked) job keeps its trace fetchable.
	boom, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, m, boom.ID); got.Status != StatusFailed {
		t.Fatalf("panicking job status = %s", got.Status)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + boom.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failed job trace: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Lambdatune-Trace"); got != "complete" {
		t.Errorf("failed job Lambdatune-Trace = %q, want complete", got)
	}
}

// TestTraceRetentionEviction runs more jobs than the retention window holds
// and checks the oldest completed trace is evicted (409) while the newest
// stays fetchable, with the eviction counter advancing.
func TestTraceRetentionEviction(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.TraceRetention = 1
	cfg.Metrics = obs.NewRegistry()
	m := openManager(t, cfg)
	srv := newServerFor(t, m)
	c := &Client{BaseURL: srv.URL}

	first, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, first.ID)
	if _, err := c.Trace(first.ID); err != nil {
		t.Fatalf("first trace should be retained: %v", err)
	}

	second, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, second.ID)

	assertTraceErr(t, srv, first.ID, http.StatusConflict, CodeTraceUnavailable)
	if _, err := c.Trace(second.ID); err != nil {
		t.Fatalf("second trace should be retained: %v", err)
	}
	snap := cfg.Metrics.Snapshot()
	if snap["service_traces_evicted_total"] != 1 {
		t.Errorf("service_traces_evicted_total = %v, want 1", snap["service_traces_evicted_total"])
	}
	if snap["service_traces_retained"] != 1 {
		t.Errorf("service_traces_retained = %v, want 1", snap["service_traces_retained"])
	}
}

// TestTraceCaptureDisabled: negative retention turns per-job tracing off
// entirely — even completed jobs answer 409.
func TestTraceCaptureDisabled(t *testing.T) {
	cfg := testConfig(t)
	cfg.TraceRetention = -1
	m := openManager(t, cfg)
	srv := newServerFor(t, m)
	job, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job.ID)
	assertTraceErr(t, srv, job.ID, http.StatusConflict, CodeTraceUnavailable)
}

// TestTraceStreamFollowsLiveJob opens the stream while the job runs and
// checks it emits schema-parseable span lines and closes at job completion,
// agreeing with the final trace's span count.
func TestTraceStreamFollowsLiveJob(t *testing.T) {
	m, srv := newTestServer(t)
	job, err := m.Enqueue(JobSpec{Benchmark: "tpch-1"})
	if err != nil {
		t.Fatal(err)
	}

	// Open the stream as soon as the trace exists (the run may finish first
	// on a fast machine — the stream then replays the full trace).
	deadline := time.Now().Add(30 * time.Second)
	var resp *http.Response
	for {
		resp, err = http.Get(srv.URL + "/v1/jobs/" + job.ID + "/trace/stream")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("stream never became available: %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer resp.Body.Close()

	var lines int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("stream line %d unparseable: %v", lines+1, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	got := waitJob(t, m, job.ID)
	if got.Status != StatusSucceeded {
		t.Fatalf("job status = %s (%s)", got.Status, got.Error)
	}
	recs, err := (&Client{BaseURL: srv.URL}).Trace(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lines != len(recs) {
		t.Errorf("stream emitted %d spans, final trace has %d", lines, len(recs))
	}
	if lines == 0 {
		t.Error("stream emitted no spans")
	}
}

// TestTraceReadsWhileJobRuns reads a running job's trace from several
// goroutines while the run records spans: /trace, /summary and
// /trace/stream through the handler, as concurrent clients reach it. Every
// partial export must parse and be schema-valid, and the stream must end
// with the final trace's span count. Run it under -race.
func TestTraceReadsWhileJobRuns(t *testing.T) {
	m, _ := newTestServer(t)
	h := m.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	job, err := m.Enqueue(JobSpec{Benchmark: "job", Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := "/v1/jobs/" + job.ID
	done := make(chan struct{})
	var partial atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := get(base + "/trace")
				if rec.Code == http.StatusConflict {
					continue // not running yet
				}
				recs, err := obs.ReadJSONL(rec.Body)
				if err != nil {
					t.Error(err)
					return
				}
				if rec.Header().Get("Lambdatune-Trace") == "partial" {
					partial.Add(1)
				}
				if len(recs) > 0 {
					if err := obs.ValidateRecords(recs); err != nil {
						t.Errorf("partial trace of %d spans: %v", len(recs), err)
						return
					}
				}
				var sum TraceSummary
				if rec := get(base + "/summary"); rec.Code == http.StatusOK {
					if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	var streamed []obs.SpanRecord
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			rec := get(base + "/trace/stream")
			if rec.Code == http.StatusConflict {
				select {
				case <-done:
					t.Error("the stream never found the trace")
					return
				default:
					continue
				}
			}
			var err error
			if streamed, err = obs.ReadJSONL(rec.Body); err != nil {
				t.Error(err)
			}
			return
		}
	}()
	if got := waitJob(t, m, job.ID); got.Status != StatusSucceeded {
		t.Fatalf("job status = %s (%s)", got.Status, got.Error)
	}
	close(done)
	wg.Wait()

	final, err := obs.ReadJSONL(get(base + "/trace").Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(final) {
		t.Errorf("stream emitted %d spans, final trace has %d", len(streamed), len(final))
	}
	if err := obs.ValidateRecords(streamed); err != nil {
		t.Errorf("streamed trace: %v", err)
	}
	if partial.Load() == 0 {
		t.Error("no read saw the running job's partial trace")
	}
}

// TestJobLogsCarryIdentityKeys checks the structured logger path: every
// job-scoped line is JSON with job_id, tenant, and run_id, the lifecycle
// transitions appear, and a panic produces a structured error record with
// the stack.
func TestJobLogsCarryIdentityKeys(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	cfg := testConfig(t)
	cfg.Logger = slog.New(slog.NewJSONHandler(&syncWriter{mu: &mu, w: &buf}, nil))
	m := openManager(t, cfg)
	m.beforeRun = func(job *Job, _ context.Context) {
		if job.Spec.Seed == 99 {
			panic("log-test boom")
		}
	}

	ok, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, ok.ID)
	boom, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Seed: 99, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, boom.ID)

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	seen := map[string]bool{}
	okRunIDs := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		msg, _ := rec["msg"].(string)
		seen[msg] = true
		if jid, _ := rec["job_id"].(string); jid != "" {
			for _, key := range []string{"tenant", "run_id"} {
				if _, has := rec[key]; !has {
					t.Errorf("log %q missing %s: %s", msg, key, line)
				}
			}
			if jid == ok.ID {
				rid, _ := rec["run_id"].(string)
				okRunIDs[rid] = true
			}
		}
		if msg == "job panicked" {
			if rec["level"] != "ERROR" {
				t.Errorf("panic log level = %v, want ERROR", rec["level"])
			}
			if stack, _ := rec["stack"].(string); !strings.Contains(stack, "goroutine") {
				t.Errorf("panic log carries no stack: %s", line)
			}
			if rec["job_id"] != boom.ID {
				t.Errorf("panic log job_id = %v, want %s", rec["job_id"], boom.ID)
			}
		}
	}
	for _, want := range []string{"job enqueued", "job running", "job finished", "job panicked"} {
		if !seen[want] {
			t.Errorf("no %q log line; got messages %v", want, seen)
		}
	}
	// run_id is the checkpoint stem: one value across the job's lines, and
	// it names the checkpoint file the run left in the job's directory.
	if len(okRunIDs) != 1 {
		t.Fatalf("job %s logged run_ids %v, want exactly one", ok.ID, okRunIDs)
	}
	for rid := range okRunIDs {
		ckpt := filepath.Join(cfg.DataDir, ok.ID, rid+runstate.CheckpointExt)
		if _, err := os.Stat(ckpt); err != nil {
			t.Errorf("run_id %q names no checkpoint: %v", rid, err)
		}
	}
}

// jobLogJob is a JOB job: naming its run must not build the workload.
var jobLogJob = &Job{ID: "job-000001", Spec: JobSpec{Benchmark: "job", Tenant: "acme"}}

// jsonLogManager opens a manager that logs JSON to io.Discard, as the
// daemon's -log-format json does.
func jsonLogManager(tb testing.TB) *Manager {
	tb.Helper()
	m, err := Open(Config{
		DataDir: tb.TempDir(),
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = m.Close() })
	return m
}

// TestJobLogCost guards the per-job cost of naming a run: jobLog runs on
// every enqueue and again when the job runs, so it must stay a handful of
// allocations rather than a parse of the benchmark's query set.
func TestJobLogCost(t *testing.T) {
	m := jsonLogManager(t)
	allocs := testing.AllocsPerRun(100, func() { _ = m.jobLog(jobLogJob) })
	if allocs > 16 {
		t.Errorf("jobLog on a JOB spec: %.0f allocs per call, want <= 16", allocs)
	}
}

func BenchmarkJobLog(b *testing.B) {
	m := jsonLogManager(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.jobLog(jobLogJob)
	}
}

// syncWriter serializes concurrent log writes from worker goroutines.
type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func newServerFor(t *testing.T, m *Manager) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func assertTraceErr(t *testing.T, srv *httptest.Server, id string, wantStatus int, wantCode string) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET trace %s: status %d, want %d", id, resp.StatusCode, wantStatus)
	}
	var apiErr APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != wantCode {
		t.Fatalf("GET trace %s: code %q, want %q", id, apiErr.Code, wantCode)
	}
}
