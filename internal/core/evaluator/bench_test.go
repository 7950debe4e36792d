package evaluator

import (
	"context"
	"testing"

	"lambdatune/internal/backend"
	"lambdatune/internal/engine"
	"lambdatune/internal/workload"
)

// BenchmarkEvaluate measures one evaluator round on JOB under the first
// LLM-sim candidate (Postgres, seed 1):
//
//   - schedule-hit: Schedule on a warm memo, from every goroutine of
//     b.RunParallel, each on its own snapshot — the daemon's hot preamble;
//   - schedule-miss: Schedule on a fresh evaluator each op — the relevance
//     map and the DP order computed from scratch;
//   - candidate: one complete Evaluate pass on a fresh snapshot of a warm
//     template, preamble, lazy index builds and query runs together.
func BenchmarkEvaluate(b *testing.B) {
	w := workload.JOB()
	cfg := simCandidates(b, w, engine.Postgres)[0]
	tmpl := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
	warm := New(tmpl)
	if err := warm.Apply(cfg); err != nil {
		b.Fatal(err)
	}
	warm.Evaluate(context.Background(), cfg, w.Queries, 1e9, NewConfigMeta())
	warm.Schedule(w.Queries, cfg)

	// applied returns an evaluator on a fresh snapshot of the template with
	// cfg applied, sharing the warm memo.
	applied := func() (*Evaluator, error) {
		e := New(tmpl.Snapshot())
		e.Memo = warm.Memo
		return e, e.Apply(cfg)
	}

	b.Run("schedule-hit", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			e, err := applied()
			if err != nil {
				b.Error(err)
				return
			}
			for pb.Next() {
				e.Schedule(w.Queries, cfg)
			}
		})
	})
	b.Run("schedule-miss", func(b *testing.B) {
		e, err := applied()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			New(e.DB).Schedule(w.Queries, cfg)
		}
	})
	b.Run("candidate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := applied()
			if err != nil {
				b.Fatal(err)
			}
			e.Evaluate(context.Background(), cfg, w.Queries, 1e9, NewConfigMeta())
		}
	})
}
