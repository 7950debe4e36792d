package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixture = "../../internal/obs/testdata/fixture.jsonl"

// TestTraceSummaryFixture pins the subcommand's output on the checked-in
// fixture trace: schema check passes and the per-phase table carries the
// fixture's known costs.
func TestTraceSummaryFixture(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := traceSummary([]string{"-check", fixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"trace ok: 12 spans",
		"llm",
		"120.00000",
		"eval",
		"69.50000",
		"index-build",
		"spans=12 events=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output is missing %q:\n%s", want, out)
		}
	}
	// The llm phase dominates the fixture, so it leads the table.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[2], "llm") {
		t.Errorf("llm is not the top phase:\n%s", out)
	}
}

// TestTraceSummaryErrors: bad usage and invalid traces exit non-zero.
func TestTraceSummaryErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := traceSummary(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no-args exit %d, want 2", code)
	}
	if code := traceSummary([]string{"/no/such/trace.jsonl"}, &stdout, &stderr); code != 1 {
		t.Errorf("missing-file exit %d, want 1", code)
	}

	// A structurally broken trace (child precedes parent) fails -check.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	lines := `{"id":1,"parent":2,"name":"child","virt_start":0,"virt_end":1}
{"id":2,"parent":0,"name":"run","virt_start":0,"virt_end":1}
`
	if err := os.WriteFile(bad, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := traceSummary([]string{"-check", bad}, &stdout, &stderr); code != 1 {
		t.Errorf("invalid-trace exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "invalid trace") {
		t.Errorf("stderr does not report the schema violation: %s", stderr.String())
	}
}

// TestTraceSummaryURL: the subcommand accepts an http(s) source and
// summarizes the fetched JSONL exactly as it would a local file; a non-200
// response surfaces as an error with the server's body.
func TestTraceSummaryURL(t *testing.T) {
	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/job-1/trace":
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write(raw)
		default:
			http.Error(w, `{"error":{"code":"not_found"}}`, http.StatusNotFound)
		}
	}))
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	if code := traceSummary([]string{"-check", srv.URL + "/v1/jobs/job-1/trace"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "trace ok: 12 spans") {
		t.Errorf("fetched trace did not validate:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := traceSummary([]string{srv.URL + "/v1/jobs/nope/trace"}, &stdout, &stderr); code != 1 {
		t.Errorf("404 source exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "not_found") {
		t.Errorf("stderr does not carry the server's error body: %s", stderr.String())
	}
}

// TestRunKillAndResume drives the full CLI through a chaos crash and a
// resume: the first invocation dies at the checkpoint closing round 2, the
// second picks the run up from the durable checkpoint and must land on the
// same configuration as an uninterrupted run.
func TestRunKillAndResume(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-benchmark", "tpch-1", "-seed", "1", "-checkpoint-dir", dir}

	var out, errb bytes.Buffer
	if code := run(append(base, "-kill-after-round", "2"), &out, &errb); code != killedExitCode {
		t.Fatalf("kill run exit %d, want %d (stderr: %s)", code, killedExitCode, errb.String())
	}
	if !strings.Contains(errb.String(), "rerun with -resume") {
		t.Errorf("kill message missing resume hint: %s", errb.String())
	}

	// An uninterrupted reference run (no checkpointing) for comparison.
	var ref bytes.Buffer
	if code := run([]string{"-benchmark", "tpch-1", "-seed", "1"}, &ref, &errb); code != 0 {
		t.Fatalf("reference run exit %d: %s", code, errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run(append(base, "-resume"), &out, &errb); code != 0 {
		t.Fatalf("resume exit %d (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "resumed from durable checkpoint") {
		t.Errorf("resume banner missing:\n%s", out.String())
	}
	// Same winning script and same speedup line, byte for byte.
	extract := func(s, anchor string) string {
		i := strings.Index(s, anchor)
		if i < 0 {
			t.Fatalf("output missing %q:\n%s", anchor, s)
		}
		return s[i:]
	}
	refTail := extract(ref.String(), "Best configuration")
	gotTail := extract(out.String(), "Best configuration")
	if refTail != gotTail {
		t.Errorf("resumed output differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", refTail, gotTail)
	}
}

// TestRunResumeWithoutCheckpointDir is a usage error: the CLI fails fast
// with exit 2 and usage text, before any tuning work starts.
func TestRunResumeWithoutCheckpointDir(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-resume"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-resume requires -checkpoint-dir") {
		t.Errorf("stderr: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "Usage of lambdatune") {
		t.Errorf("usage text missing from stderr: %s", errb.String())
	}
}

// TestRunUnknownStrategy: a bad -strategy value is a usage error.
func TestRunUnknownStrategy(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-strategy", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), `unknown strategy "bogus"`) {
		t.Errorf("stderr: %s", errb.String())
	}
}

// TestRunNegativeFaultFlags: a negative fault rate or kill point is a usage
// error naming the offending field, never a silent no-op.
func TestRunNegativeFaultFlags(t *testing.T) {
	for flag, field := range map[string]string{
		"-llm-fault-rate":    "Faults.LLMRate",
		"-engine-fault-rate": "Faults.EngineRate",
		"-kill-after-round":  "Faults.CrashAfterRound",
		"-kill-after-saves":  "Faults.CrashAfterSaves",
	} {
		var out, errb bytes.Buffer
		if code := run([]string{"-benchmark", "tpch-1", flag, "-1"}, &out, &errb); code != 2 {
			t.Errorf("%s -1: exit %d, want 2 (stderr: %s)", flag, code, errb.String())
		}
		if !strings.Contains(errb.String(), field) {
			t.Errorf("%s -1: stderr does not name %s: %s", flag, field, errb.String())
		}
	}
}

// TestRunMetricsServerShutsDown verifies the -metrics-addr listener is
// gracefully shut down when the run ends: the port must be bindable again
// immediately after run() returns.
func TestRunMetricsServerShutsDown(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-benchmark", "tpch-1", "-metrics-addr", "127.0.0.1:0"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "serving metrics on") {
		t.Errorf("metrics banner missing: %s", errb.String())
	}
}

// TestRunInstrumentReport pins -instrument's report: one line per
// observation surface with the calls and errors the tpch-1 run makes at
// three samples, the plan-cache line, and a trailing newline.
func TestRunInstrumentReport(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-benchmark", "tpch-1", "-samples", "3", "-instrument"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	text := out.String()
	_, report, ok := strings.Cut(text, "backend observation surfaces:\n")
	if !ok {
		t.Fatalf("no backend report in output:\n%s", text)
	}
	lines := strings.Split(strings.TrimSuffix(report, "\n"), "\n")
	want := []string{
		"apply_config calls=8      errors=0    wall{mean=",
		"create_index calls=28     errors=0    wall{mean=",
		"run_query    calls=38     errors=7    wall{mean=",
		"explain      calls=22     errors=0    wall{mean=",
		"plan_cache   hits=34 misses=48 evictions=0 (41.5% hit rate)",
	}
	if len(lines) != len(want) {
		t.Fatalf("report has %d lines, want %d:\n%s", len(lines), len(want), report)
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], "  "+w) {
			t.Errorf("report line %d = %q, want prefix %q", i, lines[i], "  "+w)
		}
	}
	if !strings.HasSuffix(text, "\n") {
		t.Error("output does not end in a newline")
	}
}
