package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lambdatune/internal/obs"
)

func newTestServer(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	cfg := testConfig(t)
	cfg.Metrics = obs.NewRegistry()
	m := openManager(t, cfg)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return m, srv
}

func decodeJob(t *testing.T, resp *http.Response) *Job {
	t.Helper()
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return &job
}

func TestHTTPJobLifecycle(t *testing.T) {
	m, srv := newTestServer(t)

	// Enqueue.
	body := `{"benchmark": "tpch-1", "seed": 1, "tenant": "acme"}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.ID == "" {
		t.Fatal("no job ID in response")
	}

	waitJob(t, m, job.ID)

	// Status.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", job.ID, resp.StatusCode)
	}
	got := decodeJob(t, resp)
	if got.Status != StatusSucceeded {
		t.Fatalf("status = %s (error %q)", got.Status, got.Error)
	}
	if got.Result == nil || got.Result.BestScript == "" {
		t.Error("result missing from response")
	}

	// List.
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []*Job `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Errorf("GET /jobs listed %d jobs", len(list.Jobs))
	}

	// Metrics went through the mounted registry handler.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "service_jobs_enqueued_total") {
		t.Errorf("metrics exposition missing service series:\n%s", buf.String())
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := newTestServer(t)

	for _, tc := range []struct {
		method, path, body string
		want               int
		wantCode           string
		wantRetryable      bool
	}{
		{"POST", "/v1/jobs", `{"benchmark": "no-such"}`, http.StatusBadRequest, CodeInvalidRequest, false},
		{"POST", "/v1/jobs", `not json`, http.StatusBadRequest, CodeInvalidRequest, false},
		{"POST", "/v1/jobs", `{"benchmark": "tpch-1", "bogus_field": 1}`, http.StatusBadRequest, CodeInvalidRequest, false},
		{"POST", "/v1/jobs", `{"benchmark": "tpch-1", "samples": 101}`, http.StatusBadRequest, CodeInvalidRequest, false},
		{"GET", "/v1/jobs/job-999999", "", http.StatusNotFound, CodeNotFound, false},
		{"POST", "/v1/jobs/job-999999/cancel", "", http.StatusNotFound, CodeNotFound, false},
		{"GET", "/v1/jobs/job-999999/stream", "", http.StatusNotFound, CodeNotFound, false},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var apiErr APIError
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: code %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
		if apiErr.Code != tc.wantCode {
			t.Errorf("%s %s: error code %q, want %q", tc.method, tc.path, apiErr.Code, tc.wantCode)
		}
		if apiErr.Message == "" {
			t.Errorf("%s %s: no error message", tc.method, tc.path)
		}
		if apiErr.Retryable != tc.wantRetryable {
			t.Errorf("%s %s: retryable %v, want %v", tc.method, tc.path, apiErr.Retryable, tc.wantRetryable)
		}
	}
}

// TestHTTPUnknownPath404: the removed unversioned /jobs* paths — and every
// other unknown path — answer 404 with the APIError JSON envelope, never the
// old 308 redirect or a text/plain 404.
func TestHTTPUnknownPath404(t *testing.T) {
	_, srv := newTestServer(t)

	for _, tc := range []struct {
		method, path string
	}{
		{"GET", "/jobs"},
		{"POST", "/jobs"},
		{"GET", "/jobs/job-000001"},
		{"POST", "/jobs/job-000001/cancel"},
		{"GET", "/jobs/job-000001/stream"},
		{"GET", "/v2/jobs"},
		{"GET", "/nonsense"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var apiErr APIError
		derr := json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: code %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
		}
		if derr != nil {
			t.Errorf("%s %s: body is not a JSON envelope: %v", tc.method, tc.path, derr)
			continue
		}
		if apiErr.Code != CodeNotFound {
			t.Errorf("%s %s: error code %q, want %q", tc.method, tc.path, apiErr.Code, CodeNotFound)
		}
		if apiErr.Retryable {
			t.Errorf("%s %s: 404 marked retryable", tc.method, tc.path)
		}
	}
}

// TestHTTPClientHelpers drives the typed Client against a live server,
// including the *APIError translation of failures.
func TestHTTPClientHelpers(t *testing.T) {
	m, srv := newTestServer(t)
	c := &Client{BaseURL: srv.URL}

	job, err := c.Enqueue(JobSpec{Benchmark: "tpch-1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job.ID)

	got, err := c.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusSucceeded || got.Result == nil {
		t.Fatalf("job = %+v", got)
	}
	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != job.ID {
		t.Errorf("List returned %d jobs", len(list))
	}
	if _, err := c.Cancel(job.ID); err != nil {
		t.Errorf("cancel of a terminal job should be a no-op, got %v", err)
	}

	// Failures surface as *APIError with the stable code.
	_, err = c.Get("job-999999")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.Code != CodeNotFound || apiErr.Retryable || apiErr.HTTPStatus != http.StatusNotFound {
		t.Errorf("APIError = %+v", apiErr)
	}

	_, err = c.Enqueue(JobSpec{Benchmark: "no-such"})
	if !errors.As(err, &apiErr) || apiErr.Code != CodeInvalidRequest {
		t.Errorf("bad spec error = %v", err)
	}
}

func TestHTTPRateLimited(t *testing.T) {
	cfg := testConfig(t)
	cfg.RateBurst = 1
	cfg.RatePerSecond = 0.001
	m := openManager(t, cfg)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)

	post := func() *http.Response {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"benchmark": "tpch-1", "tenant": "acme"}`))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first enqueue: %d", resp.StatusCode)
	}
	if resp := post(); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second enqueue: %d, want 429", resp.StatusCode)
	}
}

func TestHTTPHealthAndReadiness(t *testing.T) {
	m, srv := newTestServer(t)

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Draining: alive but not ready, and enqueues are refused.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready APIError
	derr := json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	if derr != nil {
		t.Errorf("readyz drain body is not a JSON envelope: %v", derr)
	} else if ready.Code != CodeDraining || !ready.Retryable {
		t.Errorf("readyz drain envelope: code %q retryable %v, want %q/true", ready.Code, ready.Retryable, CodeDraining)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark": "tpch-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("enqueue while draining: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPStream: the stream endpoint delivers progress lines and terminates
// with a final status line when the job finishes.
func TestHTTPStream(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	m := openManager(t, cfg)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)

	// Hold the job at the start line until the stream is attached, so the
	// subscription always sees the run's progress.
	attached := make(chan struct{})
	m.beforeRun = func(_ *Job, ctx context.Context) {
		select {
		case <-attached:
		case <-ctx.Done():
		}
	}

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark": "tpch-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, resp)

	stream, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream", srv.URL, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", stream.StatusCode)
	}
	close(attached)

	var lines []string
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("stream delivered no lines")
	}
	last := lines[len(lines)-1]
	if want := fmt.Sprintf("job %s: %s", job.ID, StatusSucceeded); last != want {
		t.Errorf("final stream line = %q, want %q", last, want)
	}
}

func TestHTTPListPagination(t *testing.T) {
	m, srv := newTestServer(t)

	const n = 5
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		job, err := m.Enqueue(JobSpec{Benchmark: "tpch-1", Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		waitJob(t, m, id)
	}

	// Walk the table in pages of 2 through the typed client; the pages must
	// reassemble the full ID-ordered listing exactly once each.
	c := &Client{BaseURL: srv.URL}
	var walked []string
	after := ""
	pages := 0
	for {
		jobs, next, err := c.ListPage(after, 2)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if len(jobs) > 2 {
			t.Fatalf("page of %d jobs exceeds limit 2", len(jobs))
		}
		for _, j := range jobs {
			walked = append(walked, j.ID)
		}
		if next == "" {
			break
		}
		after = next
	}
	if pages != 3 {
		t.Errorf("walked %d pages, want 3", pages)
	}
	if len(walked) != n {
		t.Fatalf("walked %d jobs, want %d", len(walked), n)
	}
	for i, id := range ids {
		if walked[i] != id {
			t.Errorf("page walk[%d] = %s, want %s", i, walked[i], id)
		}
	}

	// A cursor past the end yields an empty page and no next cursor.
	jobs, next, err := c.ListPage(ids[n-1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 || next != "" {
		t.Errorf("page past the end: %d jobs, next %q", len(jobs), next)
	}

	// Bare GET /v1/jobs keeps the unpaginated contract.
	all, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Errorf("unpaginated list has %d jobs, want %d", len(all), n)
	}

	// A malformed limit is a typed client error.
	resp, err := http.Get(srv.URL + "/v1/jobs?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=bogus: HTTP %d, want 400", resp.StatusCode)
	}
}
