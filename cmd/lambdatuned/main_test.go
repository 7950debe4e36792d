package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lambdatune"
)

// lineWatch is an io.Writer that captures output and signals the resolved
// listen address the daemon logs at boot.
type lineWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	seen bool
}

// addrRe pulls the resolved listen address out of the boot log in either
// encoding: `msg=listening addr=127.0.0.1:123` (text) or
// `"msg":"listening","addr":"127.0.0.1:123"` (json).
var addrRe = regexp.MustCompile(`"?addr"?[=:]"?([^ "\n]+)"?`)

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.seen {
		if m := addrRe.FindSubmatch(w.buf.Bytes()); m != nil {
			w.seen = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon boots the daemon in-process on a random port and returns its
// base URL plus a stop function that performs the graceful drain (the test's
// SIGTERM) and returns the exit code.
func startDaemon(t *testing.T, extraArgs ...string) (string, *lineWatch, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	watch := &lineWatch{addr: make(chan string, 1)}
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	code := make(chan int, 1)
	go func() { code <- run(ctx, args, watch, watch) }()

	var addr string
	select {
	case addr = <-watch.addr:
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatalf("daemon never reported its address; output:\n%s", watch.String())
	}
	stopped := false
	stop := func() int {
		stopped = true
		cancel()
		select {
		case c := <-code:
			return c
		case <-time.After(60 * time.Second):
			t.Fatalf("daemon did not stop; output:\n%s", watch.String())
			return -1
		}
	}
	t.Cleanup(func() {
		if !stopped {
			stop()
		}
	})
	return "http://" + addr, watch, stop
}

type jobView struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Error   string `json:"error"`
	Resumes int    `json:"resumes"`
	Result  *struct {
		BestScript  string  `json:"best_script"`
		BestSeconds float64 `json:"best_seconds"`
		Resumed     bool    `json:"resumed"`
	} `json:"result"`
}

func getJob(t *testing.T, base, id string) *jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: %d", id, resp.StatusCode)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return &v
}

func waitSucceeded(t *testing.T, base, id string) *jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, base, id)
		switch v.Status {
		case "succeeded":
			return v
		case "failed", "canceled":
			t.Fatalf("job %s ended %s (error %q)", id, v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	base, _, stop := startDaemon(t, "-data-dir", dir, "-quiet")

	// Health and readiness at boot.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}

	// Enqueue a job and watch it finish.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark": "tpch-1", "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", resp.StatusCode)
	}
	var job jobView
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := waitSucceeded(t, base, job.ID)
	if done.Result == nil || done.Result.BestScript == "" {
		t.Fatal("no result on succeeded job")
	}

	// Metrics are exposed.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "service_jobs_succeeded_total") {
		t.Errorf("metrics missing service series:\n%s", buf.String())
	}

	if code := stop(); code != 0 {
		t.Fatalf("daemon exit code %d", code)
	}
}

// TestDaemonRestartResumesCheckpointedJob is the walkthrough from the README
// in test form: a previous daemon process died mid-job (its job record says
// running, and a real mid-run checkpoint sits in the job's directory); the
// next daemon re-adopts the job on boot and resumes it from the checkpoint
// to the same answer an uninterrupted run produces.
func TestDaemonRestartResumesCheckpointedJob(t *testing.T) {
	dir := t.TempDir()
	const jobID = "job-000007"
	jobDir := filepath.Join(dir, jobID)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}

	// Manufacture the dead process's leavings: crash a checkpointed run at
	// round 2 (the chaos kill point guarantees the checkpoint is durable
	// before the "death"), plus a job.json frozen in the running state.
	db, w, err := lambdatune.Benchmark("tpch-1", lambdatune.Postgres)
	if err != nil {
		t.Fatal(err)
	}
	opts := lambdatune.DefaultOptions()
	opts.Durability.CheckpointDir = jobDir
	opts.Faults = &lambdatune.FaultPlan{Seed: opts.Seed, CrashAfterRound: 2}
	if _, err := db.Tune(w, lambdatune.NewSimulatedLLM(opts.Seed), opts); !errors.Is(err, lambdatune.ErrKilled) {
		t.Fatalf("expected ErrKilled, got %v", err)
	}
	record := fmt.Sprintf(`{"id": %q, "spec": {"benchmark": "tpch-1", "seed": 1}, "status": "running"}`, jobID)
	if err := os.WriteFile(filepath.Join(jobDir, "job.json"), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference for the identity check.
	db, w, err = lambdatune.Benchmark("tpch-1", lambdatune.Postgres)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Tune(w, lambdatune.NewSimulatedLLM(1), lambdatune.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Boot the daemon on the data dir: it must re-adopt and finish the job.
	base, watch, stop := startDaemon(t, "-data-dir", dir)
	done := waitSucceeded(t, base, jobID)
	if done.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", done.Resumes)
	}
	if done.Result == nil || !done.Result.Resumed {
		t.Fatalf("job did not resume from the checkpoint: %+v", done.Result)
	}
	if done.Result.BestScript != want.BestScript || done.Result.BestSeconds != want.BestSeconds {
		t.Errorf("resumed result differs from uninterrupted run:\n--- want\n%s\n--- got\n%s",
			want.BestScript, done.Result.BestScript)
	}
	if !strings.Contains(watch.String(), "job readopted") || !strings.Contains(watch.String(), "job_id="+jobID) {
		t.Errorf("boot log does not mention re-adoption:\n%s", watch.String())
	}
	if code := stop(); code != 0 {
		t.Fatalf("daemon exit code %d", code)
	}
}

// TestDaemonDrainInterruptsJob: SIGTERM (ctx cancel) while a job streams —
// the daemon flips readiness, interrupts the run, and exits 0; the job
// record survives as interrupted or succeeded (if the run won the race).
func TestDaemonDrainLeavesDurableState(t *testing.T) {
	dir := t.TempDir()
	base, _, stop := startDaemon(t, "-data-dir", dir, "-quiet")

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark": "tpch-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var job jobView
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if code := stop(); code != 0 {
		t.Fatalf("daemon exit code %d", code)
	}

	// Whatever state the race reached, it is on disk for the next boot.
	rec := journalRecord(t, dir, job.ID)
	switch rec.Status {
	case "succeeded", "interrupted", "queued":
	default:
		t.Fatalf("persisted status after drain = %q", rec.Status)
	}
}

// journalRecord returns the newest record of job id in the daemon's job
// journal, <data-dir>/jobs.log, whose lines read
// "crc32=<8 hex digits> <JSON record>"; a line failing the CRC is skipped.
func journalRecord(t *testing.T, dataDir, id string) *jobView {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dataDir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	var newest *jobView
	for _, line := range strings.Split(string(data), "\n") {
		head, body, _ := strings.Cut(line, " ")
		hex, framed := strings.CutPrefix(head, "crc32=")
		sum, err := strconv.ParseUint(hex, 16, 32)
		var rec jobView
		if !framed || err != nil || uint32(sum) != crc32.ChecksumIEEE([]byte(body)) ||
			json.Unmarshal([]byte(body), &rec) != nil {
			continue
		}
		if rec.ID == id {
			newest = &rec
		}
	}
	if newest == nil {
		t.Fatalf("the journal holds no record of %s:\n%s", id, data)
	}
	return newest
}

// TestDaemonJSONLogFormat boots the daemon with -log-format json and checks
// that every log line is a JSON object and that job lifecycle lines carry the
// identity keys (job_id/tenant/run_id) the observability plane promises.
func TestDaemonJSONLogFormat(t *testing.T) {
	dir := t.TempDir()
	base, watch, stop := startDaemon(t, "-data-dir", dir, "-log-format", "json")

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark": "tpch-1", "seed": 1, "tenant": "acme"}`))
	if err != nil {
		t.Fatal(err)
	}
	var job jobView
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitSucceeded(t, base, job.ID)
	if code := stop(); code != 0 {
		t.Fatalf("daemon exit code %d", code)
	}

	finished := false
	for _, line := range strings.Split(strings.TrimSpace(watch.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if rec["msg"] == "job finished" && rec["job_id"] == job.ID {
			finished = true
			if rec["tenant"] != "acme" {
				t.Errorf("job finished line tenant = %v, want acme: %s", rec["tenant"], line)
			}
			if rid, _ := rec["run_id"].(string); rid == "" {
				t.Errorf("job finished line has no run_id: %s", line)
			}
		}
	}
	if !finished {
		t.Errorf("no 'job finished' line for %s in:\n%s", job.ID, watch.String())
	}
}

// TestDaemonLogFlagValidation: bad -log-format / -log-level values are usage
// errors caught before the daemon touches the data dir.
func TestDaemonLogFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-data-dir", t.TempDir(), "-log-format", "yaml"},
		{"-data-dir", t.TempDir(), "-log-level", "loud"},
	} {
		var out bytes.Buffer
		if code := run(context.Background(), args, &out, &out); code != 2 {
			t.Errorf("run(%v) exit %d, want 2 (output: %s)", args, code, out.String())
		}
		if !strings.Contains(out.String(), "invalid -log-") {
			t.Errorf("run(%v) missing usage error: %s", args, out.String())
		}
	}
}

func TestDaemonRequiresDataDir(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), nil, &out, &out); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(out.String(), "-data-dir is required") {
		t.Errorf("missing usage error: %s", out.String())
	}
}
