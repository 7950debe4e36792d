package backend

import (
	"fmt"
	"math"
	"strings"

	"lambdatune/internal/engine"
)

// Histogram summarizes latency observations in seconds: count, sum, min and
// max. The zero value is ready to use. It is a plain value type — the
// instrumented decorator serializes updates; snapshots returned by
// BackendStats are safe to read without locking.
type Histogram struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
}

// Observe records one measurement.
func (h *Histogram) Observe(v float64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// String renders "n=K mean=X [min,max]".
func (h *Histogram) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%s [%s,%s]", h.Count,
		fmtSeconds(h.Mean()), fmtSeconds(h.Min), fmtSeconds(h.Max))
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

// SurfaceStats aggregates one observation surface: how often it was called,
// how many calls failed (rejected configurations, timed-out or aborted
// queries), and the real and virtual time per call.
type SurfaceStats struct {
	Calls  uint64
	Errors uint64
	// Wall is the real (host) latency per call.
	Wall Histogram
	// Virtual is the virtual-clock time each call charged to the backend.
	Virtual Histogram
}

// Stats is the per-surface telemetry of an instrumented backend, keyed by the
// paper's four observation surfaces, plus the backend's plan-memoization
// counters. It is a plain value snapshot.
type Stats struct {
	ApplyConfig SurfaceStats
	CreateIndex SurfaceStats
	RunQuery    SurfaceStats
	Explain     SurfaceStats
	PlanCache   engine.PlanCacheStats
}

// Surfaces returns (name, stats) pairs in a fixed order.
func (s *Stats) Surfaces() []struct {
	Name string
	S    *SurfaceStats
} {
	return []struct {
		Name string
		S    *SurfaceStats
	}{
		{"apply_config", &s.ApplyConfig},
		{"create_index", &s.CreateIndex},
		{"run_query", &s.RunQuery},
		{"explain", &s.Explain},
	}
}

// TotalCalls sums calls over all surfaces.
func (s *Stats) TotalCalls() uint64 {
	return s.ApplyConfig.Calls + s.CreateIndex.Calls + s.RunQuery.Calls + s.Explain.Calls
}

// String renders a small per-surface report.
func (s *Stats) String() string {
	var b strings.Builder
	b.WriteString("backend observation surfaces:\n")
	for _, sf := range s.Surfaces() {
		fmt.Fprintf(&b, "  %-12s calls=%-6d errors=%-4d wall{%s} virtual{%s}\n",
			sf.Name, sf.S.Calls, sf.S.Errors, sf.S.Wall.String(), sf.S.Virtual.String())
	}
	if s.PlanCache.Lookups() > 0 {
		fmt.Fprintf(&b, "  %-12s %s\n", "plan_cache", s.PlanCache)
	}
	return strings.TrimRight(b.String(), "\n")
}
