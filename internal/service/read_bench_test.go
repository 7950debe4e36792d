package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"lambdatune/internal/obs"
)

// BenchmarkReadRoutes times the daemon's read routes as lambdabench's
// daemon-readers client calls them, one ServeHTTP into a recorder per
// iteration, on a manager holding 50 finished JOB jobs: the job list at
// ?limit=50, the newest job's summary and trace, and /metrics. Sub-benchmark
// names are lambdabench's span names.
func BenchmarkReadRoutes(b *testing.B) {
	m, err := Open(Config{
		DataDir: b.TempDir(),
		Workers: 2,
		Metrics: obs.NewRegistry(),
		Logger:  slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = m.Close() })
	var last string
	for i := 0; i < 50; i++ {
		job, err := m.Enqueue(JobSpec{Benchmark: "job", Seed: int64(1 + i%4), Tenant: fmt.Sprintf("tenant-%d", i%4)})
		if err != nil {
			b.Fatal(err)
		}
		if job, err = m.Wait(context.Background(), job.ID); err != nil || job.Status != StatusSucceeded {
			b.Fatalf("job %s: %v %v", job.ID, job.Status, err)
		}
		last = job.ID
	}
	h := m.Handler()
	for _, route := range []struct{ name, path string }{
		{"service.list", "/v1/jobs?limit=50"},
		{"service.summary", "/v1/jobs/" + last + "/summary"},
		{"service.trace", "/v1/jobs/" + last + "/trace"},
		{"service.metrics", "/metrics"},
	} {
		b.Run(route.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, route.path, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("GET %s: %d", route.path, rec.Code)
				}
			}
		})
	}
}
