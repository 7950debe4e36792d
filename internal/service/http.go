package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"lambdatune/internal/obs"
)

// Handler serves the job API over HTTP/JSON, versioned under /v1:
//
//	POST /v1/jobs                    enqueue a job (body: JobSpec) → 202 + Job
//	GET  /v1/jobs                    list jobs; ?limit= and ?after= paginate
//	GET  /v1/jobs/{id}               one job's status and result
//	POST /v1/jobs/{id}/cancel        cancel a queued or running job
//	GET  /v1/jobs/{id}/stream        live progress lines, chunked, until the job ends
//	GET  /v1/jobs/{id}/trace         the job's span trace as JSONL (partial while running)
//	GET  /v1/jobs/{id}/summary       the trace's per-phase cost table as JSON
//	GET  /v1/jobs/{id}/trace/stream  spans streamed live, chunked, until the job ends
//	GET  /healthz                    liveness (200 while the process serves)
//	GET  /readyz                     readiness (503 while draining)
//	GET  /metrics                    Prometheus text exposition (when metrics are on)
//
// Trace endpoints answer 404 for unknown jobs and 409 (trace_unavailable)
// for jobs that exist but hold no trace: still queued, re-adopted from a
// previous process, tracing disabled, or evicted by the retention window. A
// running job serves its partial trace (the Lambdatune-Trace header says
// partial vs complete).
//
// The unversioned /jobs* paths of the pre-/v1 release are gone (their one
// deprecation release, as 308 redirects, is over): they now 404 like any
// other unknown path. Probe and metrics endpoints stay unversioned — they
// address the process, not the API.
//
// Every non-2xx response carries the APIError JSON envelope: a stable
// machine-readable code, a human message, and a retryable hint. That
// includes unknown paths, which get a CodeNotFound envelope instead of the
// default text/plain 404.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", m.handleEnqueue)
	mux.HandleFunc("GET /v1/jobs", m.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", m.handleGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", m.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", m.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", m.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/summary", m.handleTraceSummary)
	mux.HandleFunc("GET /v1/jobs/{id}/trace/stream", m.handleTraceStream)
	// Catch-all: unknown paths (including the removed unversioned /jobs*
	// routes) answer with the JSON 404 envelope.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, &APIError{
			Code:    CodeNotFound,
			Message: fmt.Sprintf("no route for %s %s (the job API lives under /v1)", r.Method, r.URL.Path),
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if m.Draining() {
			// Typed envelope: readiness probes and clients get the same
			// machine-readable drain signal as the job endpoints.
			writeJSON(w, http.StatusServiceUnavailable, &APIError{
				Code:      CodeDraining,
				Message:   "service: draining",
				Retryable: true,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	if m.cfg.Metrics != nil {
		metrics := obs.NewMetricsServer(m.cfg.Metrics, "").Handler()
		mux.Handle("GET /metrics", metrics)
		mux.Handle("GET /debug/vars", metrics)
	}
	return mux
}

// Stable machine-readable error codes carried by APIError.Code.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeNotFound         = "not_found"
	CodeRateLimited      = "rate_limited"
	CodeQueueFull        = "queue_full"
	CodeDraining         = "draining"
	CodeInternal         = "internal"
	CodeTraceUnavailable = "trace_unavailable"
)

// APIError is the JSON error envelope every non-2xx response carries. It is
// also what the client helpers (Client) return for API failures, so callers
// on both sides of the wire can switch on Code or consult Retryable.
type APIError struct {
	// Code is a stable machine-readable identifier (invalid_request,
	// not_found, rate_limited, queue_full, draining, internal).
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// Retryable hints that the same request may succeed later (backpressure
	// and drain conditions), as opposed to client errors that never will.
	Retryable bool `json:"retryable"`
	// HTTPStatus is the response status code (not serialized; set by the
	// client helpers for callers that need it).
	HTTPStatus int `json:"-"`
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("%s (%s)", e.Message, e.Code)
}

// toAPIError maps a service error onto the wire envelope.
func toAPIError(err error) (int, *APIError) {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, &APIError{Code: CodeNotFound, Message: err.Error()}
	case errors.Is(err, ErrTraceUnavailable):
		// 409: the job exists but its current state holds no trace. Retryable
		// because a queued job gains one the moment it starts running (an
		// evicted trace, though, is gone for good).
		return http.StatusConflict, &APIError{Code: CodeTraceUnavailable, Message: err.Error(), Retryable: true}
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests, &APIError{Code: CodeRateLimited, Message: err.Error(), Retryable: true}
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable, &APIError{Code: CodeQueueFull, Message: err.Error(), Retryable: true}
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, &APIError{Code: CodeDraining, Message: err.Error(), Retryable: true}
	default:
		// Spec validation problems are the client's fault.
		return http.StatusBadRequest, &APIError{Code: CodeInvalidRequest, Message: err.Error()}
	}
}

// writeJSON sends v as compact JSON: every client decodes it, and indenting
// the job list costs more CPU than encoding it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code, envelope := toAPIError(err)
	writeJSON(w, code, envelope)
}

func (m *Manager) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	job, err := m.Enqueue(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

// handleList serves GET /v1/jobs. Without parameters it returns the full
// table (the pre-pagination contract). ?limit=N caps the page at N jobs and
// ?after=ID resumes past a cursor; a non-empty "next_after" in the response
// is the cursor for the following page, so clients polling a thousand-job
// daemon can walk the table in bounded chunks.
func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeErr(w, fmt.Errorf("invalid limit %q: must be a non-negative integer", raw))
			return
		}
		limit = n
	}
	jobs, next := m.ListPage(q.Get("after"), limit)
	writeJSON(w, http.StatusOK, listResponse{Jobs: jobs, NextAfter: next})
}

// listResponse is the GET /v1/jobs body.
type listResponse struct {
	Jobs      []*Job `json:"jobs"`
	NextAfter string `json:"next_after,omitempty"`
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	job, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := m.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleStream sends the job's progress lines as they happen, one per line,
// flushing each, and closes when the job reaches a terminal state (or the
// client goes away).
func (m *Manager) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cancel, err := m.Subscribe(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()
	for {
		select {
		case line, ok := <-ch:
			if !ok {
				// Job finished: emit a final status line so the stream is
				// self-describing.
				if job, err := m.Get(id); err == nil {
					fmt.Fprintf(w, "job %s: %s\n", job.ID, job.Status)
				}
				flush()
				return
			}
			fmt.Fprintln(w, line)
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves the job's span trace as JSONL — the exact format
// `lambdatune trace-summary` and obs.ReadJSONL consume, encoded straight
// from the job's tracer. A running job gets its schema-valid partial trace
// (DFS order over the spans recorded so far); the Lambdatune-Trace header
// distinguishes partial from complete.
func (m *Manager) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, _, status, err := m.traceOf(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	if status.Terminal() {
		w.Header().Set("Lambdatune-Trace", "complete")
	} else {
		w.Header().Set("Lambdatune-Trace", "partial")
	}
	w.WriteHeader(http.StatusOK)
	_ = tr.WriteJSONL(w)
}

// handleTraceSummary serves the trace's per-phase cost table as JSON.
func (m *Manager) handleTraceSummary(w http.ResponseWriter, r *http.Request) {
	s, err := m.TraceSummary(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s)
}

// traceStreamPoll is how often the trace stream looks for new spans. Spans
// are emitted in creation order with stable IDs (obs.Tracer.WriteCreationJSONL),
// so every chunk extends a well-formed trace; the canonical DFS-ordered export
// from /trace remains the authoritative completed form.
const traceStreamPoll = 50 * time.Millisecond

// handleTraceStream follows a job's spans live: each new span is written as
// one JSONL line and flushed, until the job reaches a terminal state or the
// client goes away. Streaming an already-finished job emits its full trace
// and closes.
func (m *Manager) handleTraceStream(w http.ResponseWriter, r *http.Request) {
	tr, done, _, err := m.traceOf(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sent := 0
	emit := func() {
		// sent advances by the lines actually written, so a line the encoder
		// stopped before is tried again, not skipped.
		n, _ := tr.WriteCreationJSONL(w, sent)
		if n == 0 {
			return
		}
		sent += n
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit()
	ticker := time.NewTicker(traceStreamPoll)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			emit()
			return
		case <-ticker.C:
			emit()
		case <-r.Context().Done():
			return
		}
	}
}

// Client is a typed HTTP client for the /v1 job API: the lambdatuned CLI
// helpers and tests use it instead of hand-rolled requests. API failures
// come back as *APIError (errors.As), transport failures as plain errors.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out, translating
// non-2xx responses into *APIError.
func (c *Client) do(method, path string, body any, out any) error {
	var reqBody *strings.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reqBody = strings.NewReader(string(data))
	} else {
		reqBody = strings.NewReader("")
	}
	req, err := http.NewRequest(method, strings.TrimSuffix(c.BaseURL, "/")+path, reqBody)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiErrFromResponse(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiErrFromResponse decodes a non-2xx response's APIError envelope, falling
// back to a bare HTTP-status error for non-envelope bodies.
func apiErrFromResponse(resp *http.Response) *APIError {
	var apiErr APIError
	if derr := json.NewDecoder(resp.Body).Decode(&apiErr); derr != nil || apiErr.Code == "" {
		return &APIError{Code: CodeInternal, Message: fmt.Sprintf("HTTP %d", resp.StatusCode), HTTPStatus: resp.StatusCode}
	}
	apiErr.HTTPStatus = resp.StatusCode
	return &apiErr
}

// Enqueue submits a job spec and returns the accepted job record.
func (c *Client) Enqueue(spec JobSpec) (*Job, error) {
	var job Job
	if err := c.do(http.MethodPost, "/v1/jobs", spec, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Get fetches one job by ID.
func (c *Client) Get(id string) (*Job, error) {
	var job Job
	if err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// List fetches all jobs in ID order.
func (c *Client) List() ([]*Job, error) {
	var out struct {
		Jobs []*Job `json:"jobs"`
	}
	if err := c.do(http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// ListPage fetches up to limit jobs whose IDs sort after the cursor. The
// returned cursor is "" once the listing is exhausted; pass it back as after
// to continue.
func (c *Client) ListPage(after string, limit int) ([]*Job, string, error) {
	var out struct {
		Jobs      []*Job `json:"jobs"`
		NextAfter string `json:"next_after"`
	}
	params := url.Values{}
	if after != "" {
		params.Set("after", after)
	}
	if limit > 0 {
		params.Set("limit", strconv.Itoa(limit))
	}
	path := "/v1/jobs"
	if len(params) > 0 {
		path += "?" + params.Encode()
	}
	if err := c.do(http.MethodGet, path, nil, &out); err != nil {
		return nil, "", err
	}
	return out.Jobs, out.NextAfter, nil
}

// Cancel stops a queued or running job.
func (c *Client) Cancel(id string) (*Job, error) {
	var job Job
	if err := c.do(http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Trace fetches the job's span trace (the JSONL endpoint, parsed back into
// records). For a running job this is a partial trace of the run so far.
// *APIError with Code trace_unavailable means the job exists but holds no
// trace (queued, evicted, or re-adopted).
func (c *Client) Trace(id string) ([]obs.SpanRecord, error) {
	resp, err := c.http().Get(strings.TrimSuffix(c.BaseURL, "/") + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, apiErrFromResponse(resp)
	}
	return obs.ReadJSONL(resp.Body)
}

// TraceSummary fetches the job's per-phase cost table.
func (c *Client) TraceSummary(id string) (*TraceSummary, error) {
	var s TraceSummary
	if err := c.do(http.MethodGet, "/v1/jobs/"+id+"/summary", nil, &s); err != nil {
		return nil, err
	}
	return &s, nil
}
