package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzJobSpec sends the fuzz input as a POST /v1/jobs body through the
// daemon's handler. The manager is drained first, so a spec that decodes and
// validates answers 503 draining and no job runs. Every answer must be a 400
// invalid_request or a 503 draining with its APIError envelope, and nothing
// may panic.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark": "tpch-1"}`,
		`{"benchmark": "job", "dbms": "mysql", "seed": 7, "samples": 5, "parallelism": 2, "llm_fault_rate": 0.3, "engine_fault_rate": 0.1, "tenant": "acme"}`,
		`{"benchmark": "tpch-1", "bogus_field": 1}`,
		`{"benchmark": "tpch-1", "samples": 101}`,
		`{"benchmark": "tpch-1", "samples": -1, "parallelism": -4}`,
		`{"benchmark": "tpch-1", "seed": -9223372036854775808}`,
		`{"benchmark": "tpch-1", "seed": 9223372036854775808}`,
		`{"benchmark": "tpch-1", "samples": 1e400}`,
		`{"benchmark": "tpch-1", "parallelism": 99999999999}`,
		`{"benchmark": "tpch-1", "llm_fault_rate": 1.5}`,
		`{"benchmark": "tpch-1", "engine_fault_rate": -0.1}`,
		`{"benchmark": "tpch-1", "llm_fault_rate": 1e308, "engine_fault_rate": -1e308}`,
		`{"benchmark": "no-such"}`,
		`{"benchmark": "tpch-1", "dbms": "oracle"}`,
		`{"benchmark": "tpch-1"} trailing`,
		`{"benchmark": null}`,
		`[]`,
		`"tpch-1"`,
		``,
		`{`,
		strings.Repeat(`{"benchmark":`, 10001) + `"tpch-1"` + strings.Repeat(`}`, 10001),
		strings.Repeat(`[`, 20000),
		`{"benchmark": "tpch-1", "tenant": "` + strings.Repeat("x", 1<<20) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	m, err := Open(Config{
		DataDir: f.TempDir(),
		Workers: 1,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := m.Drain(context.Background()); err != nil {
		f.Fatal(err)
	}
	h := m.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		var apiErr APIError
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
			t.Fatalf("status %d with a body that is no APIError: %v\n%s", rec.Code, err, rec.Body)
		}
		switch {
		case rec.Code == http.StatusBadRequest && apiErr.Code == CodeInvalidRequest && !apiErr.Retryable:
		case rec.Code == http.StatusServiceUnavailable && apiErr.Code == CodeDraining && apiErr.Retryable:
		default:
			t.Fatalf("status %d, envelope %+v", rec.Code, apiErr)
		}
		if apiErr.Message == "" {
			t.Fatalf("status %d without a message", rec.Code)
		}
		if jobs := m.List(); len(jobs) != 0 {
			t.Fatalf("a drained manager took a job: %+v", jobs[0])
		}
	})
}
