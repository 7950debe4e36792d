package lambdatune

// One sub-benchmark per experiment of the paper's evaluation (§6), plus
// ablation benches for the design choices called out in DESIGN.md, so
// `go test -bench=.` reproduces the paper's results end to end. Run a single
// artifact with e.g. `go test -bench='Paper/table3' -benchtime=1x`.

import (
	"context"
	"testing"
	"time"

	"lambdatune/internal/backend"
	"lambdatune/internal/baselines/udo"
	"lambdatune/internal/bench"
	"lambdatune/internal/core/prompt"
	"lambdatune/internal/core/schedule"
	"lambdatune/internal/core/tuner"
	"lambdatune/internal/engine"
	"lambdatune/internal/llm"
	"lambdatune/internal/workload"
)

const benchSeed = 1

// udoBenchDeadline is the virtual tuning budget BenchmarkUDO grants: five
// hours, the per-baseline budget of the paper's experiments (§6). Long
// budgets are exactly where memoization pays: the hill climber's revisit
// rate — and so the cache hit rate — grows as the walk converges.
const udoBenchDeadline = 18000

// BenchmarkPaper regenerates every experiment of the evaluation, one
// sub-benchmark per bench.Experiments entry (BenchmarkPaper/table3, …), and
// logs its rendered text. TestPaperDigestGolden pins the numbers.
func BenchmarkPaper(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			p := bench.Params{Seed: benchSeed, Trials: 1, Burn: 500 * time.Microsecond}
			for i := 0; i < b.N; i++ {
				_, text, err := e.Run(bench.NewRunner(), p)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + text)
				}
			}
		})
	}
}

// planCacheVariants runs fn once per plan-cache setting, as sub-benchmarks.
// The memoization cache only changes host CPU time — tuning results are
// byte-identical either way (see TestGoldenSelectionE1 and DESIGN.md §9) — so the
// on/off ratio is the cache's real-time speedup.
func planCacheVariants(b *testing.B, fn func(b *testing.B, on bool)) {
	for _, on := range []bool{true, false} {
		name := "cache=off"
		if on {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) { fn(b, on) })
	}
}

// BenchmarkSelection measures a full λ-Tune tuning run (TPC-H 1GB /
// Postgres) with the plan-memoization caches on and off. The run samples 20
// candidate configurations — the configuration-selection regime where rounds
// repeat: with many candidates in flight, most rounds re-evaluate
// configurations whose remaining-query set did not change, so the round's
// schedule DP and relevance maps (and the repeat plannings beneath them)
// repeat verbatim. Workload parsing is setup, hoisted out of the timed loop.
func BenchmarkSelection(b *testing.B) {
	w := workload.TPCH(1)
	planCacheVariants(b, func(b *testing.B, on bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
			db.SetPlanCache(on)
			opts := tuner.DefaultOptions()
			opts.Seed = benchSeed
			opts.Samples = 20
			tn := tuner.New(db, llm.NewSimClient(benchSeed), opts)
			res, err := tn.Tune(context.Background(), w.Queries)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.BestTime, "best-s")
				if st := db.PlanCacheStats(); st.Lookups() > 0 {
					b.ReportMetric(100*st.HitRate(), "hit-%")
				}
			}
		}
	})
}

// BenchmarkUDO measures the UDO baseline's heavy-parameter (physical design)
// search — thousands of repeat measurements under revisited index subsets, the
// plan cache's best case — with the cache on and off. The knob MDP is
// disabled: UDO's hierarchical design runs light parameters in a nested
// tuner, and every knob change rewrites the settings fingerprint, which
// (correctly) invalidates cached plans; the outer index search is the regime
// where measurements actually repeat.
func BenchmarkUDO(b *testing.B) {
	planCacheVariants(b, func(b *testing.B, on bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := workload.TPCH(1)
			db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
			db.SetPlanCache(on)
			u := udo.New(benchSeed)
			u.TuneKnobs = false
			trace := u.Tune(db, w.Queries, udoBenchDeadline)
			if i == 0 {
				b.ReportMetric(trace.BestTime, "best-s")
				if st := db.PlanCacheStats(); st.Lookups() > 0 {
					b.ReportMetric(100*st.HitRate(), "hit-%")
				}
			}
		}
	})
}

// BenchmarkSchedulerAblation measures the DP scheduler's benefit directly:
// expected index-creation cost of the DP order vs the naive workload order
// on JOB with a typical LLM index set.
func BenchmarkSchedulerAblation(b *testing.B) {
	w := workload.JOB()
	db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
	// A representative index set: one per frequently joined column.
	defs := []engine.IndexDef{
		engine.NewIndexDef("cast_info", "movie_id"),
		engine.NewIndexDef("movie_info", "movie_id"),
		engine.NewIndexDef("movie_keyword", "movie_id"),
		engine.NewIndexDef("movie_companies", "movie_id"),
		engine.NewIndexDef("title", "id"),
	}
	indexMap := map[*engine.Query][]engine.IndexDef{}
	for _, q := range w.Queries {
		for _, d := range defs {
			for _, t := range q.Analysis.Tables {
				if t == d.Table {
					indexMap[q] = append(indexMap[q], d)
					break
				}
			}
		}
	}
	items := make([]schedule.Item, len(w.Queries))
	for i, q := range w.Queries {
		m := map[string]engine.IndexDef{}
		for _, d := range indexMap[q] {
			m[d.Key()] = d
		}
		items[i] = schedule.Item{Queries: []*engine.Query{q}, Indexes: m}
	}
	clustered := schedule.Cluster(items, schedule.MaxDPQueries, benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ordered := schedule.OrderDP(clustered, db.IndexCreationSeconds)
		if i == 0 {
			naive := schedule.ExpectedCost(clustered, db.IndexCreationSeconds)
			dp := schedule.ExpectedCost(ordered, db.IndexCreationSeconds)
			b.ReportMetric(naive, "naive-cost")
			b.ReportMetric(dp, "dp-cost")
		}
	}
}

// BenchmarkCompressorAblation compares ILP vs greedy snippet selection
// value at a tight token budget (design-choice ablation from DESIGN.md).
func BenchmarkCompressorAblation(b *testing.B) {
	w := workload.JOB()
	db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
	snips := prompt.CollectSnippets(db, w.Queries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ilpSel, err := prompt.SelectILP(snips, 200)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			greedy := prompt.SelectGreedy(snips, 200)
			b.ReportMetric(ilpSel.Value/1e6, "ilp-value-M")
			b.ReportMetric(greedy.Value/1e6, "greedy-value-M")
		}
	}
}

// BenchmarkAlphaSweep sweeps the geometric timeout factor α (paper §4 proves
// bounds for α ≥ 2; §6.1 uses 10) and reports tuning time per α on TPC-H.
func BenchmarkAlphaSweep(b *testing.B) {
	for _, alpha := range []float64{2, 4, 10, 20} {
		alpha := alpha
		b.Run(alphaName(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := workload.TPCH(1)
				db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
				opts := tuner.DefaultOptions()
				opts.Selector.Alpha = alpha
				opts.Seed = benchSeed
				tn := tuner.New(db, llm.NewSimClient(benchSeed), opts)
				res, err := tn.Tune(context.Background(), w.Queries)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.TuningSeconds, "tuning-s")
					b.ReportMetric(res.BestTime, "best-s")
				}
			}
		})
	}
}

func alphaName(a float64) string {
	switch a {
	case 2:
		return "alpha=2"
	case 4:
		return "alpha=4"
	case 10:
		return "alpha=10"
	default:
		return "alpha=20"
	}
}
