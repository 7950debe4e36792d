package schedule

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"lambdatune/internal/engine"
)

// fixedCost assigns costs by index key through a map.
func fixedCost(costs map[string]float64) IndexCost {
	return func(d engine.IndexDef) float64 { return costs[d.Key()] }
}

func item(name string, defs ...engine.IndexDef) Item {
	m := map[string]engine.IndexDef{}
	for _, d := range defs {
		m[d.Key()] = d
	}
	return Item{Queries: []*engine.Query{{Name: name}}, Indexes: m}
}

func TestExpectedCostPaperExample(t *testing.T) {
	// Paper Example 5.1: q1 needs index costing 1, q2 needs index costing 5.
	// Order q1-q2: 1 + 0.5*5 = 3.5. Order q2-q1: 5 + 0.5*1 = 5.5.
	ia := engine.NewIndexDef("t", "a")
	ib := engine.NewIndexDef("t", "b")
	cost := fixedCost(map[string]float64{ia.Key(): 1, ib.Key(): 5})
	q1 := item("q1", ia)
	q2 := item("q2", ib)
	if got := ExpectedCost([]Item{q1, q2}, cost); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("q1-q2: %v, want 3.5", got)
	}
	if got := ExpectedCost([]Item{q2, q1}, cost); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("q2-q1: %v, want 5.5", got)
	}
}

func TestOrderDPPrefersCheapFirst(t *testing.T) {
	ia := engine.NewIndexDef("t", "a")
	ib := engine.NewIndexDef("t", "b")
	cost := fixedCost(map[string]float64{ia.Key(): 1, ib.Key(): 5})
	order := OrderDP([]Item{item("expensive", ib), item("cheap", ia)}, cost)
	if order[0].Queries[0].Name != "cheap" {
		t.Errorf("order: %s first", order[0].Queries[0].Name)
	}
}

func TestOrderDPSharedIndexes(t *testing.T) {
	// q1 and q2 share index A; q3 needs expensive B. Optimal puts q3 last
	// and the A-sharing pair first (A paid once).
	ia := engine.NewIndexDef("t", "a")
	ib := engine.NewIndexDef("t", "b")
	cost := fixedCost(map[string]float64{ia.Key(): 2, ib.Key(): 10})
	items := []Item{item("q3", ib), item("q1", ia), item("q2", ia)}
	order := OrderDP(items, cost)
	if order[2].Queries[0].Name != "q3" {
		t.Errorf("expensive query not last: %v", names(order))
	}
}

func names(items []Item) []string {
	var out []string
	for _, it := range items {
		for _, q := range it.Queries {
			out = append(out, q.Name)
		}
	}
	return out
}

// bruteForce finds the optimal order by enumeration.
func bruteForce(items []Item, cost IndexCost) float64 {
	n := len(items)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			order := make([]Item, n)
			for i, p := range perm {
				order[i] = items[p]
			}
			if c := ExpectedCost(order, cost); c < best {
				best = c
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

// TestOrderDPMatchesBruteForce: DP must return an Eq.1-optimal order on
// random instances (Theorem 5.3).
func TestOrderDPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tables := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		costs := map[string]float64{}
		var defs []engine.IndexDef
		for _, tb := range tables {
			d := engine.NewIndexDef(tb, "x")
			defs = append(defs, d)
			costs[d.Key()] = float64(1 + rng.Intn(20))
		}
		items := make([]Item, n)
		for i := range items {
			m := map[string]engine.IndexDef{}
			for _, d := range defs {
				if rng.Float64() < 0.4 {
					m[d.Key()] = d
				}
			}
			items[i] = Item{Queries: []*engine.Query{{Name: string(rune('a' + i))}}, Indexes: m}
		}
		cost := fixedCost(costs)
		got := ExpectedCost(OrderDP(items, cost), cost)
		want := bruteForce(items, cost)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("trial %d: DP %v, brute force %v", trial, got, want)
		}
	}
}

func TestOrderDPEmpty(t *testing.T) {
	if got := OrderDP(nil, fixedCost(nil)); got != nil {
		t.Errorf("empty: %v", got)
	}
}

func TestOrderDPPanicsOverCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for oversized input")
		}
	}()
	items := make([]Item, MaxDPQueries+1)
	for i := range items {
		items[i] = item("q")
	}
	OrderDP(items, fixedCost(nil))
}

func TestClusterMergesIdenticalDependencies(t *testing.T) {
	// Queries with identical index sets collapse (paper example: q1:A, q2:A).
	ia := engine.NewIndexDef("t", "a")
	ib := engine.NewIndexDef("t", "b")
	var items []Item
	for i := 0; i < 10; i++ {
		items = append(items, item("a", ia))
	}
	for i := 0; i < 10; i++ {
		items = append(items, item("b", ib))
	}
	clusters := Cluster(items, 2, 1)
	if len(clusters) != 2 {
		t.Fatalf("clusters: %d", len(clusters))
	}
	total := 0
	for _, c := range clusters {
		total += len(c.Queries)
		if len(c.Indexes) != 1 {
			t.Errorf("mixed cluster: %v", c.Indexes)
		}
	}
	if total != 20 {
		t.Errorf("queries lost: %d", total)
	}
}

func TestClusterPreservesAllQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var items []Item
	defs := []engine.IndexDef{
		engine.NewIndexDef("a", "x"), engine.NewIndexDef("b", "x"),
		engine.NewIndexDef("c", "x"), engine.NewIndexDef("d", "x"),
	}
	for i := 0; i < 50; i++ {
		m := map[string]engine.IndexDef{}
		for _, d := range defs {
			if rng.Float64() < 0.5 {
				m[d.Key()] = d
			}
		}
		items = append(items, Item{Queries: []*engine.Query{{Name: "q"}}, Indexes: m})
	}
	clusters := Cluster(items, MaxDPQueries, 7)
	if len(clusters) > MaxDPQueries {
		t.Fatalf("too many clusters: %d", len(clusters))
	}
	total := 0
	for _, c := range clusters {
		total += len(c.Queries)
	}
	if total != 50 {
		t.Errorf("queries lost in clustering: %d", total)
	}
}

func TestClusterNoIndexes(t *testing.T) {
	var items []Item
	for i := 0; i < 30; i++ {
		items = append(items, item("q"))
	}
	clusters := Cluster(items, 5, 1)
	if len(clusters) != 1 {
		t.Errorf("index-free items should merge to one cluster, got %d", len(clusters))
	}
}

func TestOrderEndToEnd(t *testing.T) {
	// 30 queries, 4 index groups: Order must cluster then DP and return all.
	defs := []engine.IndexDef{
		engine.NewIndexDef("a", "x"), engine.NewIndexDef("b", "x"),
		engine.NewIndexDef("c", "x"), engine.NewIndexDef("d", "x"),
	}
	costs := map[string]float64{
		defs[0].Key(): 1, defs[1].Key(): 5, defs[2].Key(): 10, defs[3].Key(): 20,
	}
	var queries []*engine.Query
	indexMap := map[*engine.Query][]engine.IndexDef{}
	for i := 0; i < 30; i++ {
		q := &engine.Query{Name: string(rune('a' + i%26))}
		queries = append(queries, q)
		indexMap[q] = []engine.IndexDef{defs[i%4]}
	}
	ordered := Order(queries, indexMap, fixedCost(costs), 3)
	if len(ordered) != 30 {
		t.Fatalf("queries lost: %d", len(ordered))
	}
	// First query should depend on the cheapest index group.
	first := indexMap[ordered[0]][0]
	if costs[first.Key()] != 1 {
		t.Errorf("first query depends on cost-%v index", costs[first.Key()])
	}
}

func TestExpectedCostDecreasingWeights(t *testing.T) {
	// Moving an expensive-index query later strictly reduces expected cost.
	ia := engine.NewIndexDef("t", "a")
	ib := engine.NewIndexDef("t", "b")
	ic := engine.NewIndexDef("t", "c")
	cost := fixedCost(map[string]float64{ia.Key(): 1, ib.Key(): 1, ic.Key(): 50})
	early := []Item{item("x", ic), item("y", ia), item("z", ib)}
	late := []Item{item("y", ia), item("z", ib), item("x", ic)}
	if ExpectedCost(late, cost) >= ExpectedCost(early, cost) {
		t.Error("later placement of expensive index not cheaper")
	}
}

// orderDPReference is OrderDP as it stood before the DP was restricted to
// free items and per-subset unions: every item is tested for membership,
// and improving a subset rewrites its union in place. OrderDP must return
// the same items in the same order on every input.
func orderDPReference(items []Item, cost IndexCost) []Item {
	n := len(items)
	if n == 0 {
		return nil
	}
	if n > MaxDPQueries {
		panic("schedule: OrderDP input exceeds MaxDPQueries; cluster first")
	}
	sp := newIndexSpace(items, cost)
	size := 1 << n
	dpCost := make([]float64, size)
	dpTotal := make([]float64, size) // totalCost(S): union index creation cost
	dpPrev := make([]int8, size)     // last item appended for reconstruction
	for mask := 1; mask < size; mask++ {
		dpCost[mask] = math.Inf(1)
		dpPrev[mask] = -1
	}

	w := sp.words
	unionBacking := make([]uint64, size*w)
	union := func(mask int) []uint64 { return unionBacking[mask*w : (mask+1)*w] }

	for mask := 0; mask < size; mask++ {
		if math.IsInf(dpCost[mask], 1) {
			continue
		}
		um := union(mask)
		for q := 0; q < n; q++ {
			if mask&(1<<q) != 0 {
				continue
			}
			next := mask | 1<<q
			z := sp.incremental(sp.itemBits[q], um)
			c := dpCost[mask] + dpTotal[mask] + z
			if c < dpCost[next]-1e-12 {
				dpCost[next] = c
				dpTotal[next] = dpTotal[mask] + z
				dpPrev[next] = int8(q)
				un := union(next)
				for i := range un {
					un[i] = um[i] | sp.itemBits[q][i]
				}
			}
		}
	}

	order := make([]Item, 0, n)
	mask := size - 1
	for mask != 0 {
		q := int(dpPrev[mask])
		order = append(order, items[q])
		mask &^= 1 << q
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// kmeansPlusPlusInitReference is kmeansPlusPlusInit as it stood before the
// running minimum: every pick re-measures each point against every center.
func kmeansPlusPlusInitReference(vecs [][]float64, k int, rng *rand.Rand) [][]float64 {
	centers := make([][]float64, 0, k)
	first := rng.Intn(len(vecs))
	centers = append(centers, append([]float64(nil), vecs[first]...))
	dists := make([]float64, len(vecs))
	for len(centers) < k {
		var total float64
		for i, v := range vecs {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(v, c); d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		if total == 0 {
			centers = append(centers, append([]float64(nil), vecs[rng.Intn(len(vecs))]...))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, d := range dists {
			r -= d
			if r <= 0 {
				idx = i
				break
			}
		}
		centers = append(centers, append([]float64(nil), vecs[idx]...))
	}
	return centers
}

// orderDPInput draws one seeded OrderDP input: 1–13 items over 1–150
// distinct indexes (1–3 bitset words). A fifth of the seeds draw costs from
// {−2, −1, 0, 1}, so the DP's pruning is off; of the rest, a third draw from
// {1, 2, 3} to force ties. A quarter give the first item an empty index set
// and the last a copy of another item's.
func orderDPInput(seed int64) ([]Item, IndexCost) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(MaxDPQueries)
	defs := make([]engine.IndexDef, 1+rng.Intn(150))
	costs := map[string]float64{}
	for i := range defs {
		defs[i] = engine.NewIndexDef(fmt.Sprintf("t%d", i%7), fmt.Sprintf("c%d", i))
		switch {
		case seed%5 == 2:
			costs[defs[i].Key()] = float64(rng.Intn(4) - 2)
		case seed%3 == 0:
			costs[defs[i].Key()] = float64(1 + rng.Intn(3))
		default:
			costs[defs[i].Key()] = 10 * rng.ExpFloat64()
		}
	}
	density := 0.05 + 0.6*rng.Float64()
	items := make([]Item, n)
	for i := range items {
		m := map[string]engine.IndexDef{}
		for _, d := range defs {
			if rng.Float64() < density {
				m[d.Key()] = d
			}
		}
		items[i] = Item{Queries: []*engine.Query{{Name: fmt.Sprintf("q%d", i)}}, Indexes: m}
	}
	if seed%4 == 1 {
		items[0].Indexes = map[string]engine.IndexDef{}
		if n > 1 {
			items[n-1].Indexes = maps.Clone(items[rng.Intn(n-1)].Indexes)
		}
	}
	return items, fixedCost(costs)
}

// TestOrderDPMatchesReference: OrderDP returns exactly the reference
// implementation's order — the same item at every position — on seeded
// inputs spanning every bitset width, forced cost ties, and empty and
// duplicated index sets.
func TestOrderDPMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		items, cost := orderDPInput(seed)
		got, want := OrderDP(items, cost), orderDPReference(items, cost)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d items, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].Queries[0] != want[i].Queries[0] {
				t.Fatalf("seed %d: position %d holds %s, reference %s", seed, i, got[i].Queries[0].Name, want[i].Queries[0].Name)
			}
		}
	}
}

// kmeansInput draws 14–133 vectors: 0/1 index vectors on two thirds of the
// seeds, arbitrary floats on the rest. Every fifth seed copies them from
// fewer than 13 prototypes, so seeding reaches its total == 0 branch.
func kmeansInput(seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	n, d := 14+rng.Intn(120), 1+rng.Intn(40)
	draw := func() []float64 {
		v := make([]float64, d)
		for j := range v {
			if seed%3 == 2 {
				v[j] = rng.Float64()
			} else if rng.Intn(2) == 0 {
				v[j] = 1
			}
		}
		return v
	}
	var protos [][]float64
	if seed%5 == 0 {
		for p := 1 + rng.Intn(MaxDPQueries-1); p > 0; p-- {
			protos = append(protos, draw())
		}
	}
	vecs := make([][]float64, n)
	for i := range vecs {
		if protos != nil {
			vecs[i] = append([]float64(nil), protos[rng.Intn(len(protos))]...)
		} else {
			vecs[i] = draw()
		}
	}
	return vecs
}

// TestKmeansPlusPlusInitMatchesReference: k-means++ seeding picks bit-equal
// centers and consumes the same random draws as the reference.
func TestKmeansPlusPlusInitMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		vecs := kmeansInput(seed)
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got := kmeansPlusPlusInit(vecs, MaxDPQueries, rngGot)
		want := kmeansPlusPlusInitReference(vecs, MaxDPQueries, rngWant)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d centers, reference %d", seed, len(got), len(want))
		}
		for c := range got {
			for j := range got[c] {
				if math.Float64bits(got[c][j]) != math.Float64bits(want[c][j]) {
					t.Fatalf("seed %d: center %d differs from the reference at %d", seed, c, j)
				}
			}
		}
		if rngGot.Int63() != rngWant.Int63() {
			t.Fatalf("seed %d: seeding consumed a different number of random draws", seed)
		}
	}
}
