// Package instrumented decorates any backend.Backend with per-surface
// telemetry: every call to one of the paper's four observation surfaces is
// counted and timed (wall clock and virtual clock) into an obs.Registry, the
// decorator's only sink. Injected engine faults are decided above the
// backend, in the evaluator, so the decorator never sees them. It exists both as a practical telemetry layer
// (Database.BackendReport prints the numbers) and as proof that the backend
// seam composes: the decorator is itself a conforming Backend and registers
// as "instrumented" so it participates in the conformance suite.
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

func init() {
	backend.Register("instrumented", func(spec backend.Spec) (backend.Backend, error) {
		inner, err := backend.Open("sim", spec)
		if err != nil {
			return nil, err
		}
		return Wrap(inner), nil
	})
}

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

// Backend wraps an inner backend with observation telemetry. Construct with
// Wrap; snapshots share the wrapped instance's sink, so replica work is
// counted in the same registry.
type Backend struct {
	inner backend.Backend
	sink  *atomic.Pointer[sink]
}

// Wrap decorates inner, feeding a fresh registry. The returned backend
// forwards every method; only the four paper surfaces (ApplyConfig,
// CreateIndex, RunQuery, Explain) are instrumented.
func Wrap(inner backend.Backend) *Backend {
	b := &Backend{inner: inner, sink: new(atomic.Pointer[sink])}
	b.sink.Store(newSink(obs.NewRegistry()))
	return b
}

// Snapshot clones the inner backend and wraps the clone with this decorator's
// sink, so work done on replicas aggregates with the parent's.
func (b *Backend) Snapshot() backend.Backend {
	return &Backend{inner: b.inner.Snapshot(), sink: b.sink}
}

// AbsorbSnapshot folds a replica's counters back into the inner backend.
func (b *Backend) AbsorbSnapshot(o backend.Backend) {
	if ib, ok := o.(*Backend); ok {
		o = ib.inner
	}
	b.inner.AbsorbSnapshot(o)
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
	wall, virtual := time.Since(start).Seconds(), b.inner.Clock().Now()-v0
	s := &b.sink.Load().surfaces[i]
	s.calls.Inc()
	if failed {
		s.errors.Inc()
	}
	s.virtSecs.Add(virtual)
	s.wallSecs.Add(wall)
	s.virtHist.Observe(virtual)
}

// Plain accessors: forwarded untouched.

// Flavor returns the inner backend's flavor.
func (b *Backend) Flavor() engine.Flavor { return b.inner.Flavor() }

// Catalog returns the inner backend's catalog.
func (b *Backend) Catalog() *engine.Catalog { return b.inner.Catalog() }

// Hardware returns the inner backend's hardware description.
func (b *Backend) Hardware() engine.Hardware { return b.inner.Hardware() }

// Clock returns the inner backend's virtual clock.
func (b *Backend) Clock() *engine.Clock { return b.inner.Clock() }

// Instrumented surfaces.

// ApplyConfig forwards and counts the configuration-acceptance surface.
func (b *Backend) ApplyConfig(cfg *engine.Config) error {
	start, v0 := time.Now(), b.inner.Clock().Now()
	err := b.inner.ApplyConfig(cfg)
	b.observe(applyConfig, start, v0, err != nil)
	return err
}

// CreateIndex forwards and counts the index-creation surface.
func (b *Backend) CreateIndex(def engine.IndexDef) float64 {
	start, v0 := time.Now(), b.inner.Clock().Now()
	secs := b.inner.CreateIndex(def)
	b.observe(createIndex, start, v0, false)
	return secs
}

// RunQuery forwards and counts the timed-execution surface.
func (b *Backend) RunQuery(q *engine.Query, timeout float64) engine.ExecResult {
	start, v0 := time.Now(), b.inner.Clock().Now()
	res := b.inner.RunQuery(q, timeout)
	b.observe(runQuery, start, v0, !res.Complete)
	return res
}

// Explain forwards and counts the EXPLAIN surface.
func (b *Backend) Explain(q *engine.Query) []engine.JoinCost {
	start, v0 := time.Now(), b.inner.Clock().Now()
	out := b.inner.Explain(q)
	b.observe(explain, start, v0, false)
	return out
}

// Uninstrumented pass-throughs (pure measurements and index bookkeeping).

// DropTransientIndexes forwards to the inner backend.
func (b *Backend) DropTransientIndexes() { b.inner.DropTransientIndexes() }

// CreatePermanentIndex forwards to the inner backend.
func (b *Backend) CreatePermanentIndex(def engine.IndexDef) { b.inner.CreatePermanentIndex(def) }

// DropIndex forwards to the inner backend.
func (b *Backend) DropIndex(def engine.IndexDef) { b.inner.DropIndex(def) }

// HasIndex forwards to the inner backend.
func (b *Backend) HasIndex(def engine.IndexDef) bool { return b.inner.HasIndex(def) }

// Indexes forwards to the inner backend.
func (b *Backend) Indexes() []engine.IndexDef { return b.inner.Indexes() }

// IndexCreationSeconds forwards to the inner backend.
func (b *Backend) IndexCreationSeconds(def engine.IndexDef) float64 {
	return b.inner.IndexCreationSeconds(def)
}

// QuerySeconds forwards to the inner backend.
func (b *Backend) QuerySeconds(q *engine.Query) float64 { return b.inner.QuerySeconds(q) }

// WorkloadSeconds forwards to the inner backend.
func (b *Backend) WorkloadSeconds(qs []*engine.Query) float64 { return b.inner.WorkloadSeconds(qs) }

// PlanCost forwards to the inner backend.
func (b *Backend) PlanCost(q *engine.Query) float64 { return b.inner.PlanCost(q) }

// PlanCacheStats forwards to the inner backend.
func (b *Backend) PlanCacheStats() engine.PlanCacheStats { return b.inner.PlanCacheStats() }

// SetPlanCache forwards to the inner backend.
func (b *Backend) SetPlanCache(on bool) { b.inner.SetPlanCache(on) }

// PlanCacheEnabled forwards to the inner backend.
func (b *Backend) PlanCacheEnabled() bool { return b.inner.PlanCacheEnabled() }

// Executions reports the inner backend's completed-execution count (0 when it
// does not count them).
func (b *Backend) Executions() int {
	if ec, ok := b.inner.(interface{ Executions() int }); ok {
		return ec.Executions()
	}
	return 0
}
