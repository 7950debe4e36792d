package service

import (
	"context"
	"log/slog"

	"lambdatune"
	"lambdatune/internal/runstate"
	"lambdatune/internal/workload"
)

// resolveLogger picks the manager's structured logger: the configured one,
// else a discard logger so call sites never nil-check.
func resolveLogger(logger *slog.Logger) *slog.Logger {
	if logger != nil {
		return logger
	}
	return slog.New(discardHandler{})
}

// jobLog returns the manager logger bound to the job's identity: every
// job-scoped line carries the same job_id / tenant / run_id keys, so one
// grep (or one structured-log query) follows a job across enqueue, run,
// panic, and finish. The attrs go to the handler directly rather than
// through Logger.With, which would box each value: this runs at least twice
// per job.
func (m *Manager) jobLog(job *Job) *slog.Logger {
	return slog.New(m.log.Handler().WithAttrs([]slog.Attr{
		slog.String("job_id", job.ID),
		slog.String("tenant", job.Spec.Tenant),
		slog.String("run_id", runIDOf(&job.Spec)),
	}))
}

// runIDOf derives the job's run identity — the sanitised stem its durable
// checkpoints are stored under — so log lines correlate directly with
// checkpoint files and trace exports. It reads the benchmark's title from
// the workload table and never builds the workload: jobLog runs on every
// enqueue and run, and building JOB parses all 113 of its queries.
func runIDOf(spec *JobSpec) string {
	name := spec.Benchmark
	if title, err := workload.Title(name); err == nil {
		name = title
	}
	return runstate.SanitizeRunID(lambdatune.RunID(name, spec.seed()))
}

// discardHandler is a no-op slog handler (slog.DiscardHandler arrived after
// this module's Go baseline).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
