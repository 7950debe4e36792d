package obs

import "testing"

// BenchmarkMetricObserve measures the registry's per-call cost on the hot
// paths that feed it: a counter add and a histogram observe through
// resolved handles, and a by-name counter lookup (what call sites that do
// not cache their handle pay).
func BenchmarkMetricObserve(b *testing.B) {
	reg := NewRegistry()
	b.Run("counter", func(b *testing.B) {
		c := reg.Counter("backend_run_query_calls_total")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		h := reg.Histogram("backend_run_query_virtual_seconds")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.25)
		}
	})
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg.Counter("runtime_pool_leases_total").Inc()
		}
	})
}

// BenchmarkTracerSpan measures span capture — one Start and End with three
// attributes — and the end-of-run Summarize of a 300-span trace, which every
// daemon job runs for Result.Telemetry. Span capture starts a fresh tracer
// every 1024 spans, so memory stays bounded at any b.N.
func BenchmarkTracerSpan(b *testing.B) {
	b.Run("start-end", func(b *testing.B) {
		var tr *Tracer
		var root *Span
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				tr = NewTracer()
				root = tr.Start(nil, "run", 0)
			}
			sp := tr.Start(root, "query", float64(i),
				String("query", "q1"), Int("round", 1), Float("timeout", 2.5))
			sp.End(float64(i) + 1)
		}
	})
	b.Run("summarize-300", func(b *testing.B) {
		tr := NewTracer()
		root := tr.Start(nil, "run", 0)
		names := []string{"query", "index.build", "schedule", "candidate", "llm.sample"}
		for i := 1; i < 300; i++ {
			tr.Start(root, names[i%len(names)], float64(i)).End(float64(i) + 0.5)
		}
		root.End(300)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = tr.Summarize()
		}
	})
}
