package engine_test

import (
	"sync"
	"testing"

	"lambdatune/internal/engine"
	"lambdatune/internal/workload"
)

// BenchmarkPlanCache measures repeat planning through the plan cache. on and
// off plan a three-way join on one DB with the cache on and off. snapshots
// plans the warm JOB workload from parallel goroutines, each on its own
// snapshot of one DB, so every lookup is a hit in the store they share.
func BenchmarkPlanCache(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			db, q := engine.JoinFixture()
			db.SetPlanCache(on)
			db.QuerySeconds(q) // warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.QuerySeconds(q)
			}
		})
	}
	b.Run("snapshots", func(b *testing.B) {
		w := workload.JOB()
		db := engine.NewDB(engine.Postgres, w.Catalog, engine.DefaultHardware)
		db.WorkloadSeconds(w.Queries) // warm
		var mu sync.Mutex             // one Snapshot at a time, as the evaluator takes them
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			mu.Lock()
			snap := db.Snapshot()
			mu.Unlock()
			for pb.Next() {
				snap.WorkloadSeconds(w.Queries)
			}
		})
		b.StopTimer()
		b.ReportMetric(100*db.PlanCacheStats().HitRate(), "hit-%")
	})
}
