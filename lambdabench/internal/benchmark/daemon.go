package benchmark

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lambdatune"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
	"lambdatune/internal/service"
)

// Daemon sizing: the default worker pool, and as many evaluation slots as
// the two-core hosts the benchmark was calibrated on have cores.
const (
	daemonWorkers   = 2
	daemonEvalSlots = 2
)

// daemon is an in-process lambdatuned, wired the way cmd/lambdatuned wires
// it: one metrics registry behind the runtime_* and service_* series, a JSON
// slog logger (here to io.Discard), the shared Runtime, and the service
// Handler on a real loopback TCP listener.
type daemon struct {
	dir    string
	rt     *lambdatune.Runtime
	m      *service.Manager
	srv    *http.Server
	served chan error
	base   string
	hc     *http.Client
	api    *service.Client
}

func startDaemon(dir string, w *Workload) (*daemon, error) {
	logg := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	rtMetrics := lambdatune.NewMetrics()
	rt := lambdatune.NewRuntime(lambdatune.RuntimeOptions{
		EvalSlots:     daemonEvalSlots,
		TenantWeights: w.Weights,
		MemoCapacity:  w.MemoCapacity,
		Metrics:       rtMetrics,
		Logger:        logg,
	})
	m, err := service.Open(service.Config{
		DataDir:       dir,
		Workers:       daemonWorkers,
		QueueDepth:    64,
		RatePerSecond: 1,
		Metrics:       rtMetrics.Registry(),
		Runtime:       rt,
		Logger:        logg,
	})
	if err != nil {
		rt.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = m.Close()
		rt.Close()
		return nil, err
	}
	d := &daemon{
		dir:    dir,
		rt:     rt,
		m:      m,
		srv:    &http.Server{Handler: m.Handler(), ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		// Keep-alive connections for every client, as a CLI polling one
		// daemon would hold them.
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * Clients}},
	}
	d.api = &service.Client{BaseURL: d.base, HTTP: d.hc}
	go func() { d.served <- d.srv.Serve(ln) }()
	if err := d.waitReady(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.hc.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the service, stops the listener and waits for it to return.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.m.Drain(ctx)
	_ = d.srv.Shutdown(ctx)
	<-d.served
	d.hc.CloseIdleConnections()
	d.rt.Close()
}

// jobOutcome is what one client learned about one submitted job.
type jobOutcome struct {
	spec    service.JobSpec
	id      string
	ms      float64
	refused bool // HTTP 429/503: the daemon turned the job away
	status  service.JobStatus
	result  *service.JobResult
	err     error

	// Standalone runs also report the program's per-phase wall time, its
	// span count and the database's plan-cache counters.
	phaseMS map[string]float64
	spans   int
	plan    engine.PlanCacheStats
}

func (o jobOutcome) ok() bool { return o.err == nil && o.status == service.StatusSucceeded }

// runJob submits one job and waits for it the way the CLI does: POST the
// spec, follow /stream until the job ends, then GET the record.
func (d *daemon) runJob(tr *obs.Tracer, parent *obs.Span, spec service.JobSpec) jobOutcome {
	out := jobOutcome{spec: spec}
	start := time.Now()
	job := tr.Start(parent, "bench.job", 0)
	defer job.End(0)
	var rec *service.Job
	out.err = span(tr, job, "service.enqueue", func() (err error) {
		rec, err = d.api.Enqueue(spec)
		return err
	})
	if out.err != nil {
		var apiErr *service.APIError
		if errors.As(out.err, &apiErr) && (apiErr.HTTPStatus == http.StatusTooManyRequests || apiErr.HTTPStatus == http.StatusServiceUnavailable) {
			out.refused = true
		}
		out.ms = msSince(start)
		return out
	}
	out.id = rec.ID
	out.err = span(tr, job, "service.stream", func() error {
		return d.drain("/v1/jobs/" + rec.ID + "/stream")
	})
	if out.err == nil {
		out.err = span(tr, job, "service.get", func() (err error) {
			rec, err = d.api.Get(out.id)
			return err
		})
	}
	out.ms = msSince(start)
	if out.err == nil {
		out.status, out.result = rec.Status, rec.Result
		if rec.Status != service.StatusSucceeded {
			out.err = fmt.Errorf("job %s ended %s: %s", rec.ID, rec.Status, rec.Error)
		}
	}
	return out
}

// drain GETs path and reads the body to its end.
func (d *daemon) drain(path string) error {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return nil
}

// readRoutes are the reads the daemon-readers client cycles through, by
// span name; the job ID is the last finished job.
var readRoutes = []struct {
	name string
	path func(id string) string
}{
	{"service.list", func(string) string { return "/v1/jobs?limit=50" }},
	{"service.summary", func(id string) string { return "/v1/jobs/" + id + "/summary" }},
	{"service.trace", func(id string) string { return "/v1/jobs/" + id + "/trace" }},
	{"service.metrics", func(string) string { return "/metrics" }},
}

// read performs read route r about job id inside a span under parent.
func (d *daemon) read(tr *obs.Tracer, parent *obs.Span, r int, id string) error {
	route := readRoutes[r]
	return span(tr, parent, route.name, func() error { return d.drain(route.path(id)) })
}

// slotWaitMS scrapes /metrics for the evaluation slots' queue-wait
// histograms and returns their mean wait in ms across every tenant.
func (d *daemon) slotWaitMS() (float64, error) {
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var sum, count float64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "slots_queue_wait_seconds_") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /metrics line %q: %w", line, err)
		}
		switch {
		case strings.HasSuffix(name, "_sum"):
			sum += v
		case strings.HasSuffix(name, "_count"):
			count += v
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("/metrics has no slots_queue_wait_seconds samples")
	}
	return 1e3 * sum / count, nil
}

// diskUsage reports the bytes and regular files under the data dir and how
// many job directories it holds.
func diskUsage(dir string) (bytes int64, files, jobs int, err error) {
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != dir && filepath.Dir(path) == dir {
				jobs++
			}
			return nil
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files, jobs, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// removeAll deletes a run's working directory, reporting failures on stderr
// only: a leftover directory never changes a result.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "lambdabench:", err)
	}
}
