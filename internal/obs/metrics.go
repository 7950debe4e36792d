package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a run's metrics: counters, gauges, and fixed-bucket
// histograms, addressed by name. Metric handles are cheap and lock-free
// after lookup (atomic float64 bit operations), so hot paths should resolve
// a handle once and reuse it. A nil *Registry returns nil metric handles,
// whose methods are all no-ops — call sites need no conditionals.
//
// Export comes in two dialects: WritePrometheus emits the text exposition
// format for scrape endpoints, and String() emits the JSON object form that
// expvar.Publish expects, so a Registry can be mounted directly on
// /debug/vars via expvar.Var.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*MetricHistogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*MetricHistogram{},
	}
}

// Counter is a monotonically increasing metric. The zero of a nil handle is
// a no-op.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter by v (negative deltas are ignored — counters
// only go up).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		cur := math.Float64frombits(old)
		if c.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can move in both directions.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricBuckets are the histogram upper bounds: one per decade from 1µs to
// 10,000s (the simulator's plausible per-call latency range), plus +Inf. A
// sample lands in the first bucket whose bound it does not exceed
// (Prometheus "le" semantics).
var metricBuckets = [...]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1e3, 1e4}

// MetricHistogram is a fixed-bucket histogram with atomic buckets; Observe
// is lock-free.
type MetricHistogram struct {
	buckets [len(metricBuckets) + 1]atomic.Uint64 // last = overflow (+Inf)
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *MetricHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(metricBuckets) && v > metricBuckets[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		cur := math.Float64frombits(old)
		if h.sumBits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *MetricHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *MetricHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Counter returns the named counter, creating it on first use. Nil registry
// returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *MetricHistogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &MetricHistogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every scalar metric (counters and gauges; histograms
// contribute name_count and name_sum) as a sorted-key map. This is the form
// folded into Result.Telemetry.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.counts)+len(r.gauges)+2*len(r.hists))
	for name, c := range r.counts {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+"_count"] = float64(h.Count())
		out[name+"_sum"] = h.Sum()
	}
	return out
}

// WritePrometheus emits the registry in the Prometheus text exposition
// format (families sorted by name; counters as TYPE counter, gauges as
// gauge, histograms with cumulative le buckets).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	counts := sortedKeys(r.counts)
	gauges := sortedKeys(r.gauges)
	hists := sortedKeys(r.hists)
	r.mu.RUnlock()

	var b strings.Builder
	for _, name := range counts {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %v\n", name, name, r.Counter(name).Value())
	}
	for _, name := range gauges {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %v\n", name, name, r.Gauge(name).Value())
	}
	for _, name := range hists {
		h := r.Histogram(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		var cum uint64
		for i, ub := range metricBuckets {
			cum += h.buckets[i].Load()
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, trimFloat(ub), cum)
		}
		cum += h.buckets[len(metricBuckets)].Load()
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(&b, "%s_sum %v\n%s_count %d\n", name, h.Sum(), name, h.Count())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the registry as a JSON object of scalar values, the shape
// expvar.Publish expects of an expvar.Var, so a Registry can be mounted on
// /debug/vars directly.
func (r *Registry) String() string {
	if r == nil {
		return "{}"
	}
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %v", k, snap[k])
	}
	b.WriteByte('}')
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// trimFloat formats a bucket bound compactly (0.001, 1, 10000).
func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}
