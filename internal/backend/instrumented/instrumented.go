// Package instrumented decorates any backend.Backend with per-surface
// telemetry: every call to one of the paper's four observation surfaces is
// counted and timed (wall clock and virtual clock) into an obs.Registry, the
// decorator's only sink. Injected engine faults are decided above the
// backend, in the evaluator, so the decorator never sees them. It exists both
// as a practical telemetry layer (Database.BackendReport prints the numbers)
// and as proof that the backend seam composes: the decorator is itself a
// conforming Backend, and the conformance suite runs against it.
package instrumented

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"lambdatune/internal/backend"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
)

// surfaceNames are the paper's four observation surfaces, in report order.
// Each feeds backend_<surface>_{calls,errors,virtual_seconds,wall_seconds}_total
// counters and a backend_<surface>_virtual_seconds histogram.
var surfaceNames = [...]string{"apply_config", "create_index", "run_query", "explain"}

// Indexes into surfaceNames.
const (
	applyConfig = iota
	createIndex
	runQuery
	explain
)

// surface holds one observation surface's registry handles.
type surface struct {
	calls, errors, virtSecs, wallSecs *obs.Counter
	virtHist                          *obs.MetricHistogram
}

// sink is the registry a decorator feeds, with every surface's handles
// resolved once.
type sink struct {
	reg      *obs.Registry
	surfaces [len(surfaceNames)]surface
}

func newSink(reg *obs.Registry) *sink {
	s := &sink{reg: reg}
	for i, name := range surfaceNames {
		p := "backend_" + name + "_"
		s.surfaces[i] = surface{
			calls:    reg.Counter(p + "calls_total"),
			errors:   reg.Counter(p + "errors_total"),
			virtSecs: reg.Counter(p + "virtual_seconds_total"),
			wallSecs: reg.Counter(p + "wall_seconds_total"),
			virtHist: reg.Histogram(p + "virtual_seconds"),
		}
	}
	return s
}

// wrapped names the embedded inner backend through an unexported alias, so
// its methods are promoted but the field stays private: no holder of a
// *Backend can reach the inner surfaces past the counters.
type wrapped = backend.Backend

// Backend wraps an inner backend with observation telemetry. Construct with
// Wrap; snapshots share the wrapped instance's sink, so replica work is
// counted in the same registry.
type Backend struct {
	wrapped // the inner backend, whose other methods pass through
	sink    *atomic.Pointer[sink]
}

// Wrap decorates inner, feeding a fresh registry. Only the four paper
// surfaces (ApplyConfig, CreateIndex, RunQuery, Explain) are instrumented;
// every other method is inner's own.
func Wrap(inner backend.Backend) *Backend {
	b := &Backend{wrapped: inner, sink: new(atomic.Pointer[sink])}
	b.sink.Store(newSink(obs.NewRegistry()))
	return b
}

// Snapshot clones the inner backend and wraps the clone with this decorator's
// sink, so work done on replicas aggregates with the parent's.
func (b *Backend) Snapshot() backend.Backend {
	return &Backend{wrapped: b.wrapped.Snapshot(), sink: b.sink}
}

// AttachMetrics re-points the decorator, and every snapshot sharing its
// sink, at reg: from this call on, surface observations feed reg and Report
// and Registry read it. A decorator feeds exactly one registry at a time and
// nothing is copied across, so attach before the run's first surface call.
// A nil reg is ignored.
func (b *Backend) AttachMetrics(reg *obs.Registry) {
	if reg != nil {
		b.sink.Store(newSink(reg))
	}
}

// Registry returns the registry the decorator currently feeds.
func (b *Backend) Registry() *obs.Registry { return b.sink.Load().reg }

// Report renders the registry the decorator currently feeds, one line per
// surface: calls, errors, mean wall time, and total and mean virtual time,
// all derived from the surface's _total counters.
func (b *Backend) Report() string {
	sk := b.sink.Load()
	var sb strings.Builder
	sb.WriteString("backend observation surfaces:")
	for i, name := range surfaceNames {
		s := &sk.surfaces[i]
		calls, virt := s.calls.Value(), s.virtSecs.Value()
		n := math.Max(calls, 1) // every sum is 0 while calls is
		fmt.Fprintf(&sb, "\n  %-12s calls=%-6d errors=%-4d wall{mean=%s} virtual{total=%s mean=%s}",
			name, uint64(calls), uint64(s.errors.Value()),
			fmtSeconds(s.wallSecs.Value()/n), fmtSeconds(virt), fmtSeconds(virt/n))
	}
	return sb.String()
}

// fmtSeconds renders a duration in seconds with a sensible unit.
func fmtSeconds(s float64) string {
	abs := math.Abs(s)
	switch {
	case abs == 0:
		return "0s"
	case abs < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case abs < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// observe records one call on surface i, timed from (start, v0): four
// lock-free counter bumps and one histogram observation.
func (b *Backend) observe(i int, start time.Time, v0 float64, failed bool) {
	wall, virtual := time.Since(start).Seconds(), b.Clock().Now()-v0
	s := &b.sink.Load().surfaces[i]
	s.calls.Inc()
	if failed {
		s.errors.Inc()
	}
	s.virtSecs.Add(virtual)
	s.wallSecs.Add(wall)
	s.virtHist.Observe(virtual)
}

// ApplyConfig forwards and counts the configuration-acceptance surface.
func (b *Backend) ApplyConfig(cfg *engine.Config) error {
	start, v0 := time.Now(), b.Clock().Now()
	err := b.wrapped.ApplyConfig(cfg)
	b.observe(applyConfig, start, v0, err != nil)
	return err
}

// CreateIndex forwards and counts the index-creation surface.
func (b *Backend) CreateIndex(def engine.IndexDef) float64 {
	start, v0 := time.Now(), b.Clock().Now()
	secs := b.wrapped.CreateIndex(def)
	b.observe(createIndex, start, v0, false)
	return secs
}

// RunQuery forwards and counts the timed-execution surface.
func (b *Backend) RunQuery(q *engine.Query, timeout float64) engine.ExecResult {
	start, v0 := time.Now(), b.Clock().Now()
	res := b.wrapped.RunQuery(q, timeout)
	b.observe(runQuery, start, v0, !res.Complete)
	return res
}

// Explain forwards and counts the EXPLAIN surface.
func (b *Backend) Explain(q *engine.Query) []engine.JoinCost {
	start, v0 := time.Now(), b.Clock().Now()
	out := b.wrapped.Explain(q)
	b.observe(explain, start, v0, false)
	return out
}
