package schedule_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lambdatune/internal/backend"
	"lambdatune/internal/core/evaluator"
	"lambdatune/internal/core/prompt"
	"lambdatune/internal/core/schedule"
	"lambdatune/internal/engine"
	"lambdatune/internal/llm"
	"lambdatune/internal/workload"
)

// orderInput draws one seeded Order input: 1–130 queries, so both the
// clustered and the unclustered path run, over 1–150 distinct indexes (1–3
// bitset words). Seeds ≡ 4–7 mod 11 aim at the DP's subset bound and at
// k-means over distinct rows:
//   - 4: near ties. Costs come from a few bases and lie apart by multiples of
//     one gap between 1e-13 and 1e-8, absolute or relative to the base.
//   - 5: magnitudes from 1e-9 to 1e12, spread over the whole range or around
//     one scale.
//   - 6: every cost zero.
//   - 7: 100–130 queries drawn from at most 8 index sets.
//
// Of the other seeds, a third draw costs from {1, 2, 3} to force ties; of
// the rest, those ≡ 3 mod 7 draw from {−1, 0, 1, 2}, so the DP prunes
// nothing. A quarter give the first query an empty index list and the last a
// copy of another query's; a fifth draw every list from a few prototypes, so
// clusters see identical sets. Lists are shuffled and may name an index
// twice.
func orderInput(seed int64) ([]*engine.Query, map[*engine.Query][]engine.IndexDef, schedule.IndexCost) {
	rng := rand.New(rand.NewSource(seed))
	class := seed % 11
	n := 1 + rng.Intn(130)
	if class == 7 {
		n = 100 + rng.Intn(31)
	}
	defs := make([]engine.IndexDef, 1+rng.Intn(150))
	var costOf func() float64
	switch {
	case class == 4:
		bases := make([]float64, 1+rng.Intn(4))
		for i := range bases {
			bases[i] = 10 * rng.ExpFloat64()
		}
		gap, relative := math.Pow(10, -13+5*rng.Float64()), rng.Intn(2) == 0
		costOf = func() float64 {
			b, k := bases[rng.Intn(len(bases))], float64(rng.Intn(4))
			if relative {
				return b * (1 + k*gap)
			}
			return b + k*gap
		}
	case class == 5:
		if scale := math.Pow(10, -9+20*rng.Float64()); rng.Intn(2) == 0 {
			costOf = func() float64 { return scale * (0.5 + rng.Float64()) }
		} else {
			costOf = func() float64 { return math.Pow(10, -9+21*rng.Float64()) }
		}
	case class == 6:
		costOf = func() float64 { return 0 }
	case seed%3 == 0:
		costOf = func() float64 { return float64(1 + rng.Intn(3)) }
	case seed%7 == 3:
		costOf = func() float64 { return float64(rng.Intn(4) - 1) }
	default:
		costOf = func() float64 { return 10 * rng.ExpFloat64() }
	}
	costs := map[string]float64{}
	for i := range defs {
		defs[i] = engine.NewIndexDef(fmt.Sprintf("t%d", i%7), fmt.Sprintf("c%d", i))
		costs[defs[i].Key()] = costOf()
	}
	density := 0.02 + 0.4*rng.Float64()
	draw := func() []engine.IndexDef {
		var l []engine.IndexDef
		for _, d := range defs {
			if rng.Float64() < density {
				l = append(l, d)
				if rng.Intn(10) == 0 {
					l = append(l, d)
				}
			}
		}
		rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		return l
	}
	var protos [][]engine.IndexDef
	switch {
	case class == 7:
		for p := 1 + rng.Intn(8); p > 0; p-- {
			protos = append(protos, draw())
		}
	case seed%5 == 2:
		for p := 1 + rng.Intn(20); p > 0; p-- {
			protos = append(protos, draw())
		}
	}
	queries := make([]*engine.Query, n)
	indexMap := map[*engine.Query][]engine.IndexDef{}
	for i := range queries {
		q := &engine.Query{Name: fmt.Sprintf("q%d", i)}
		queries[i] = q
		if protos != nil {
			indexMap[q] = slices.Clone(protos[rng.Intn(len(protos))])
		} else {
			indexMap[q] = draw()
		}
	}
	if seed%4 == 1 && class != 7 {
		indexMap[queries[0]] = nil
		if n > 1 {
			indexMap[queries[n-1]] = slices.Clone(indexMap[queries[rng.Intn(n-1)]])
		}
	}
	cost := func(d engine.IndexDef) float64 { return costs[d.Key()] }
	return queries, indexMap, cost
}

// simCandidates returns the configurations the LLM simulator proposes for w
// on flavor at seeds 1 to seeds, five samples each at the tuner's default
// temperature — the candidates of a default tuning run. Unparseable samples
// are skipped, as the tuner drops them.
func simCandidates(tb testing.TB, w *workload.Workload, flavor engine.Flavor, seeds int64) []*engine.Config {
	tb.Helper()
	db := backend.NewSim(flavor, w.Catalog, engine.DefaultHardware)
	pr, err := prompt.Generate(db, w.Queries, db.Hardware(), prompt.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	var cfgs []*engine.Config
	for seed := int64(1); seed <= seeds; seed++ {
		client := llm.NewSimClient(seed)
		for i := 1; i <= 5; i++ {
			out, err := client.CompleteT(context.Background(), pr.Text, 0.7)
			if err != nil {
				tb.Fatal(err)
			}
			if cfg, _, err := engine.ParseScript(flavor, fmt.Sprintf("llm-%d-%d", seed, i), out); err == nil {
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

func sameOrder(got, want []*engine.Query) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d queries, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("position %d holds %s, reference %s", i, got[i].Name, want[i].Name)
		}
	}
	return nil
}

// TestOrderMatchesReference: Order returns exactly the map-based reference's
// permutation — on 2,000 seeded inputs, and on every built-in workload on
// both flavors under the relevance map of each LLM-sim candidate, with that
// candidate applied so index costs see its maintenance memory. -short runs
// every eighth seed: the race sweep spends most of a minute on all 2,000.
func TestOrderMatchesReference(t *testing.T) {
	step := int64(1)
	if testing.Short() {
		step = 8
	}
	for seed := int64(0); seed < 2000; seed += step {
		queries, indexMap, cost := orderInput(seed)
		if err := sameOrder(schedule.Order(queries, indexMap, cost, seed), schedule.OrderReference(queries, indexMap, cost, seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, flavor := range []engine.Flavor{engine.Postgres, engine.MySQL} {
			db := backend.NewSim(flavor, w.Catalog, engine.DefaultHardware)
			for _, cfg := range simCandidates(t, w, flavor, 5) {
				if err := db.ApplyConfig(cfg); err != nil {
					t.Fatal(err)
				}
				indexMap := evaluator.QueryIndexMap(w.Queries, cfg)
				for _, seed := range []int64{1, 7} {
					got := schedule.Order(w.Queries, indexMap, db.IndexCreationSeconds, seed)
					want := schedule.OrderReference(w.Queries, indexMap, db.IndexCreationSeconds, seed)
					if err := sameOrder(got, want); err != nil {
						t.Fatalf("%s %v %s seed %d: %v", name, flavor, cfg.ID, seed, err)
					}
				}
			}
		}
	}
}

// TestOrderConcurrent: the DP's pooled arrays are shared by every caller in
// the process — parallel evaluator workers, and concurrent daemon jobs through
// a shared memo. Eight goroutines order distinct and identical inputs at
// once, and each result must equal the sequential one.
func TestOrderConcurrent(t *testing.T) {
	type input struct {
		queries  []*engine.Query
		indexMap map[*engine.Query][]engine.IndexDef
		cost     schedule.IndexCost
		seed     int64
		want     []*engine.Query
	}
	const workers = 8
	var inputs []input
	for seed := int64(1); len(inputs) < workers+1; seed++ {
		queries, indexMap, cost := orderInput(seed)
		if len(queries) < 5 {
			continue
		}
		in := input{queries: queries, indexMap: indexMap, cost: cost, seed: seed}
		in.want = schedule.Order(queries, indexMap, cost, seed)
		inputs = append(inputs, in)
	}
	shared := inputs[workers] // the identical input every goroutine orders
	got := make([][2][]*engine.Query, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := inputs[g]
			for r := 0; r < 3; r++ {
				got[g][0] = schedule.Order(own.queries, own.indexMap, own.cost, own.seed)
				got[g][1] = schedule.Order(shared.queries, shared.indexMap, shared.cost, shared.seed)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if err := sameOrder(got[g][0], inputs[g].want); err != nil {
			t.Errorf("goroutine %d, own input: %v", g, err)
		}
		if err := sameOrder(got[g][1], shared.want); err != nil {
			t.Errorf("goroutine %d, shared input: %v", g, err)
		}
	}
}

// BenchmarkOrder measures one cold scheduling call, the input lambdabench's
// schedule.order span times: JOB's 113 queries under the relevance map of
// the first LLM-sim candidate (Postgres, seed 1), costed on a fresh backend.
func BenchmarkOrder(b *testing.B) {
	w := workload.JOB()
	cfg := simCandidates(b, w, engine.Postgres, 1)[0]
	db := backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
	indexMap := evaluator.QueryIndexMap(w.Queries, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schedule.Order(w.Queries, indexMap, db.IndexCreationSeconds, 1)
	}
}

// paperInput is one scheduling call of a tuning run: a workload's queries
// under one candidate's relevance map, costed on a backend with that
// candidate applied.
type paperInput struct {
	queries  []*engine.Query
	indexMap map[*engine.Query][]engine.IndexDef
	cost     schedule.IndexCost
}

// paperInputs returns the scheduling calls of the LLM-sim candidates of
// seeds 1 to seeds for the named workload on flavor.
func paperInputs(tb testing.TB, name string, flavor engine.Flavor, seeds int64) []paperInput {
	tb.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	var in []paperInput
	for _, cfg := range simCandidates(tb, w, flavor, seeds) {
		db := backend.NewSim(flavor, w.Catalog, engine.DefaultHardware)
		if err := db.ApplyConfig(cfg); err != nil {
			tb.Fatal(err)
		}
		in = append(in, paperInput{w.Queries, evaluator.QueryIndexMap(w.Queries, cfg), db.IndexCreationSeconds})
	}
	return in
}

// TestDPBoundPrunes: on the scheduling calls of the paper's workloads (the
// LLM-sim candidates of seeds 1–5, both flavors, clustered as Order clusters
// them), the DP's subset bound leaves most subsets of a full-size call
// unexpanded; the DP without it expands every one. Each ceiling caps the
// mean share per workload and flavor. It sits above the shares measured when
// the bound was added (tpch 20.1%, tpcds-1 13.6–14.9%, job 5.0–6.4%) and
// below those of the bound without T_full (47%, 20–23%, 22–26%), which stays
// exact and so passes every order test.
func TestDPBoundPrunes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's candidates")
	}
	ceiling := map[string]float64{"tpch-1": 0.25, "tpch-10": 0.25, "tpcds-1": 0.18, "job": 0.12}
	for _, name := range workload.Names() {
		for _, flavor := range []engine.Flavor{engine.Postgres, engine.MySQL} {
			var calls int
			var sum, most float64
			for _, in := range paperInputs(t, name, flavor, 5) {
				items := make([]schedule.Item, len(in.queries))
				for i, q := range in.queries {
					m := map[string]engine.IndexDef{}
					for _, d := range in.indexMap[q] {
						m[d.Key()] = d
					}
					items[i] = schedule.Item{Queries: []*engine.Query{q}, Indexes: m}
				}
				clusters := schedule.Cluster(items, schedule.MaxDPQueries, 1)
				if len(clusters) < schedule.MaxDPQueries {
					continue // a candidate with few relevant indexes: a trivial DP
				}
				share := float64(schedule.DPExpanded(clusters, in.cost)) / (1 << schedule.MaxDPQueries)
				calls++
				sum += share
				most = max(most, share)
			}
			if calls == 0 {
				continue
			}
			t.Logf("%s %v: %d full-size calls expand %.1f%% of their subsets on average, %.1f%% at most", name, flavor, calls, 100*sum/float64(calls), 100*most)
			if c, ok := ceiling[name]; ok && sum/float64(calls) > c {
				t.Errorf("%s %v: calls expanded %.1f%% of their subsets on average, over the %.0f%% ceiling", name, flavor, 100*sum/float64(calls), 100*c)
			}
		}
	}
}

// BenchmarkOrderPaper measures the cold scheduling calls of one tuning run,
// the inputs lambdabench's standalone-paper schedules: Order over the
// relevance map of every LLM-sim candidate of seed 1 on Postgres, each
// costed on a backend with its candidate applied.
func BenchmarkOrderPaper(b *testing.B) {
	for _, name := range []string{"tpch-1", "tpcds-1", "job"} {
		b.Run(name, func(b *testing.B) {
			in := paperInputs(b, name, engine.Postgres, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range in {
					schedule.Order(c.queries, c.indexMap, c.cost, 1)
				}
			}
		})
	}
}

// BenchmarkKmeansJOB measures the k-means pass Order runs on JOB's 113
// queries under the relevance map of the first LLM-sim candidate (Postgres,
// seed 1): rows with equal index sets, the case distinct-row grouping cuts.
func BenchmarkKmeansJOB(b *testing.B) {
	w := workload.JOB()
	cfg := simCandidates(b, w, engine.Postgres, 1)[0]
	kmeans := schedule.KmeansQueries(w.Queries, evaluator.QueryIndexMap(w.Queries, cfg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmeans(1)
	}
}
