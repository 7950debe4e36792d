package service

import (
	"errors"
	"fmt"

	"lambdatune/internal/obs"
)

// ErrTraceUnavailable reports a job that exists but has no fetchable trace:
// it has not started yet, tracing is disabled, the trace was evicted by the
// retention window, or the job predates this process (re-adopted terminal
// jobs carry no spans). Distinct from ErrNotFound — the job itself is real.
var ErrTraceUnavailable = errors.New("service: trace unavailable")

// TraceSummary is the JSON form of a job's per-phase cost table — the same
// breakdown `lambdatune trace-summary` renders, served by
// GET /v1/jobs/{id}/summary.
type TraceSummary struct {
	JobID  string    `json:"job_id"`
	Status JobStatus `json:"status"`
	// Partial marks a summary taken from a still-running job's trace.
	Partial bool            `json:"partial,omitempty"`
	Spans   int             `json:"spans"`
	Events  int             `json:"events"`
	Phases  []obs.PhaseCost `json:"phases"`
}

// TraceSummary condenses the job's trace into its per-phase cost breakdown:
// a running job's spans so far, or a finished job's full trace, summed in the
// export's depth-first order. ErrNotFound for unknown jobs,
// ErrTraceUnavailable (HTTP 409) when the job exists but holds no trace.
func (m *Manager) TraceSummary(id string) (*TraceSummary, error) {
	tr, _, status, err := m.traceOf(id)
	if err != nil {
		return nil, err
	}
	s := tr.Summarize()
	return &TraceSummary{
		JobID:   id,
		Status:  status,
		Partial: !status.Terminal(),
		Spans:   s.Spans,
		Events:  s.Events,
		Phases:  s.Phases,
	}, nil
}

// traceOf resolves a job's live tracer, done channel, and status under the
// manager lock. The done channel closes when the job reaches a terminal
// state, which is what lets the stream endpoint follow a run to completion.
func (m *Manager) traceOf(id string) (*obs.Tracer, <-chan struct{}, JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, nil, "", ErrNotFound
	}
	if job.trace == nil {
		return nil, nil, job.Status, fmt.Errorf("%w: job %s (%s) has no retained trace", ErrTraceUnavailable, id, job.Status)
	}
	return job.trace, job.done, job.Status, nil
}
