// Package instrumented decorates any backend.Backend with per-surface call
// counters and latency histograms — one wall-clock and one virtual-clock
// histogram per observation surface. It exists both as a practical telemetry
// layer (Database.BackendReport prints the stats) and as proof that the
// backend seam composes: the decorator is itself a conforming Backend and
// registers as "instrumented" so it participates in the conformance suite.
package instrumented

import (
	"sync"
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

// surfaceCollector accumulates one observation surface. Call and error
// counts are atomics so the hot path is lock-free for the scalar part; the
// two histograms share one surface-local mutex, so concurrent pool workers
// contend only when they hit the *same* surface at the same instant (the
// mutex space is sharded by surface) — never across surfaces, and never on
// the counters.
type surfaceCollector struct {
	calls  atomic.Uint64
	errors atomic.Uint64

	mu      sync.Mutex // guards the two histograms only
	wall    backend.Histogram
	virtual backend.Histogram

	// Registry handles, resolved once by AttachMetrics (nil handles are
	// no-ops, so an unattached backend pays four nil checks per call).
	mCalls, mErrors      *obs.Counter
	mVirtSecs, mWallSecs *obs.Counter
	mVirtHist            *obs.MetricHistogram
}

// observe records one call on the surface.
func (sc *surfaceCollector) observe(wall, virtual float64, failed bool) {
	sc.calls.Add(1)
	if failed {
		sc.errors.Add(1)
	}
	sc.mu.Lock()
	sc.wall.Observe(wall)
	sc.virtual.Observe(virtual)
	sc.mu.Unlock()

	sc.mCalls.Inc()
	if failed {
		sc.mErrors.Inc()
	}
	sc.mVirtSecs.Add(virtual)
	sc.mWallSecs.Add(wall)
	sc.mVirtHist.Observe(virtual)
}

// snapshot copies the surface into a plain SurfaceStats value.
func (sc *surfaceCollector) snapshot() backend.SurfaceStats {
	sc.mu.Lock()
	wall, virtual := sc.wall, sc.virtual
	sc.mu.Unlock()
	return backend.SurfaceStats{
		Calls:   sc.calls.Load(),
		Errors:  sc.errors.Load(),
		Wall:    wall,
		Virtual: virtual,
	}
}

// attach binds the surface to its named registry metrics.
func (sc *surfaceCollector) attach(reg *obs.Registry, surface string) {
	sc.mCalls = reg.Counter("backend_" + surface + "_calls_total")
	sc.mErrors = reg.Counter("backend_" + surface + "_errors_total")
	sc.mVirtSecs = reg.Counter("backend_" + surface + "_virtual_seconds_total")
	sc.mWallSecs = reg.Counter("backend_" + surface + "_wall_seconds_total")
	sc.mVirtHist = reg.Histogram("backend_" + surface + "_virtual_seconds")
}

// collector is the accumulator shared by a backend and all its snapshots, so
// replica work taken on clones is counted in one place. Surfaces are
// independent shards; there is no collector-wide lock on the observe path.
type collector struct {
	apply, index, query, explain surfaceCollector

	// reg, when non-nil, additionally receives plan-cache gauges at
	// BackendStats time (the counters live inside the engine, so they are
	// pulled, not pushed).
	reg *obs.Registry
}

// snapshot assembles a consistent-enough Stats value: each surface is
// internally consistent; surfaces are copied one after another.
func (c *collector) snapshot() backend.Stats {
	return backend.Stats{
		ApplyConfig: c.apply.snapshot(),
		CreateIndex: c.index.snapshot(),
		RunQuery:    c.query.snapshot(),
		Explain:     c.explain.snapshot(),
	}
}

// Backend wraps an inner backend with observation telemetry. Construct with
// Wrap; snapshots share the wrapped instance's collector.
type Backend struct {
	inner backend.Backend
	c     *collector
}

// Wrap decorates inner. The returned backend forwards every method; only the
// four paper surfaces (ApplyConfig, CreateIndex, RunQuery, Explain) are
// instrumented.
func Wrap(inner backend.Backend) *Backend {
	return &Backend{inner: inner, c: &collector{}}
}

// Snapshot clones the inner backend and wraps the clone with this decorator's
// stats collector, so work done on replicas aggregates with the parent's.
func (b *Backend) Snapshot() backend.Backend {
	return &Backend{inner: b.inner.Snapshot(), c: b.c}
}

// AbsorbSnapshot folds a replica's counters back into the inner backend.
func (b *Backend) AbsorbSnapshot(o backend.Backend) {
	if ib, ok := o.(*Backend); ok {
		o = ib.inner
	}
	b.inner.AbsorbSnapshot(o)
}

// AttachMetrics routes every future surface observation into reg as
// backend_<surface>_{calls,errors,virtual_seconds,wall_seconds}_total
// counters plus a backend_<surface>_virtual_seconds histogram, and makes
// BackendStats publish the plan-cache counters as gauges. Attach before the
// run starts; handles are resolved once, so the per-call cost is four
// lock-free counter bumps.
func (b *Backend) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	b.c.apply.attach(reg, "apply_config")
	b.c.index.attach(reg, "create_index")
	b.c.query.attach(reg, "run_query")
	b.c.explain.attach(reg, "explain")
	b.c.reg = reg
}

// BackendStats returns a consistent snapshot of the accumulated telemetry,
// shared with all snapshots taken from this backend. The inner backend's
// plan-memoization counters are folded into Stats.PlanCache and, when a
// registry is attached, mirrored as backend_plan_cache_* gauges.
func (b *Backend) BackendStats() backend.Stats {
	st := b.c.snapshot()
	st.PlanCache = b.inner.PlanCacheStats()
	if reg := b.c.reg; reg != nil {
		reg.Gauge("backend_plan_cache_hits").Set(float64(st.PlanCache.Hits))
		reg.Gauge("backend_plan_cache_misses").Set(float64(st.PlanCache.Misses))
		reg.Gauge("backend_plan_cache_evictions").Set(float64(st.PlanCache.Evictions))
	}
	return st
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
	b.c.apply.observe(time.Since(start).Seconds(), b.inner.Clock().Now()-v0, err != nil)
	return err
}

// CreateIndex forwards and counts the index-creation surface.
func (b *Backend) CreateIndex(def engine.IndexDef) float64 {
	start, v0 := time.Now(), b.inner.Clock().Now()
	secs := b.inner.CreateIndex(def)
	// A build that spent time but left no index behind is an injected
	// failure; count it as a surface error.
	failed := secs > 0 && !b.inner.HasIndex(def)
	b.c.index.observe(time.Since(start).Seconds(), b.inner.Clock().Now()-v0, failed)
	return secs
}

// RunQuery forwards and counts the timed-execution surface.
func (b *Backend) RunQuery(q *engine.Query, timeout float64) engine.ExecResult {
	start, v0 := time.Now(), b.inner.Clock().Now()
	res := b.inner.RunQuery(q, timeout)
	b.c.query.observe(time.Since(start).Seconds(), b.inner.Clock().Now()-v0, !res.Complete)
	return res
}

// Explain forwards and counts the EXPLAIN surface.
func (b *Backend) Explain(q *engine.Query) []engine.JoinCost {
	start, v0 := time.Now(), b.inner.Clock().Now()
	out := b.inner.Explain(q)
	b.c.explain.observe(time.Since(start).Seconds(), b.inner.Clock().Now()-v0, false)
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

// SetFaultInjector forwards to the inner backend.
func (b *Backend) SetFaultInjector(fi engine.FaultInjector) { b.inner.SetFaultInjector(fi) }

// HasFaultInjector forwards to the inner backend.
func (b *Backend) HasFaultInjector() bool { return b.inner.HasFaultInjector() }

// QueryAborts forwards to the inner backend.
func (b *Backend) QueryAborts() int { return b.inner.QueryAborts() }

// IndexFailures forwards to the inner backend.
func (b *Backend) IndexFailures() int { return b.inner.IndexFailures() }

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
