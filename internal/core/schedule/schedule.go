// Package schedule implements λ-Tune's query-ordering component (paper §5.2-
// §5.4): the expected index-creation cost model (Eq. 1), the dynamic-
// programming scheduler (Algorithm 4), and the k-means query clustering that
// bounds the DP's exponential input size at 13.
package schedule

import (
	"math"
	"math/bits"
	"sort"

	"lambdatune/internal/engine"
)

// MaxDPQueries caps the DP input size (paper §5.4: "we strictly limit the
// input to our algorithm to a manageable size of 13 queries").
const MaxDPQueries = 13

// IndexCost supplies the creation cost of an index.
type IndexCost func(engine.IndexDef) float64

// Item is one schedulable unit: a query (or query cluster) with the indexes
// it can exploit.
type Item struct {
	// Queries holds the original queries (one for plain items, several for
	// clusters).
	Queries []*engine.Query
	// Indexes are the potentially relevant index definitions, keyed by
	// IndexDef.Key().
	Indexes map[string]engine.IndexDef
}

// indexSpace maps the distinct indexes across a set of items to dense
// integer ids so set operations become bitset words instead of string-map
// unions — the former dominated the CPU profile of a tuning run. Ids are
// assigned in sorted-key order and per-index costs are computed once per
// space; iterating set bits in ascending id order then reproduces the
// historical "sort the keys, sum the costs" order exactly, so every
// floating-point sum — and with it every scheduling decision — stays
// bit-identical to the map-based implementation.
type indexSpace struct {
	costs []float64 // creation cost per index id
	words int       // bitset width in uint64 words
	// itemBits[i] is item i's index set; each slice is words long.
	itemBits [][]uint64
}

func newIndexSpace(items []Item, cost IndexCost) indexSpace {
	var keys []string
	defs := map[string]engine.IndexDef{}
	for _, it := range items {
		for k, def := range it.Indexes {
			if _, ok := defs[k]; !ok {
				defs[k] = def
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	id := make(map[string]int, len(keys))
	sp := indexSpace{costs: make([]float64, len(keys)), words: (len(keys) + 63) / 64}
	for i, k := range keys {
		id[k] = i
		sp.costs[i] = cost(defs[k])
	}
	sp.itemBits = make([][]uint64, len(items))
	backing := make([]uint64, len(items)*sp.words)
	for i, it := range items {
		b := backing[i*sp.words : (i+1)*sp.words : (i+1)*sp.words]
		for k := range it.Indexes {
			b[id[k]/64] |= 1 << (id[k] % 64)
		}
		sp.itemBits[i] = b
	}
	return sp
}

// incremental is z_i(Q) from §5.2: the creation cost of the item's indexes
// (itemBits) not already covered by the created set, summed in ascending id
// (= sorted key) order.
func (sp *indexSpace) incremental(itemBits, created []uint64) float64 {
	var sum float64
	for w, b := range itemBits {
		d := b &^ created[w]
		for d != 0 {
			sum += sp.costs[w*64+bits.TrailingZeros64(d)]
			d &= d - 1
		}
	}
	return sum
}

// ExpectedCost evaluates Eq. 1 for a given order: assuming interruption after
// each position is equally likely, the expected total index-creation cost is
// 1/n · Σ_k Σ_{j≤k} z_j = Σ_j (n-j+1)/n · z_j.
func ExpectedCost(order []Item, cost IndexCost) float64 {
	n := len(order)
	if n == 0 {
		return 0
	}
	sp := newIndexSpace(order, cost)
	created := make([]uint64, sp.words)
	var total float64
	for j := range order {
		z := sp.incremental(sp.itemBits[j], created)
		total += z * float64(n-j) / float64(n)
		for w, b := range sp.itemBits[j] {
			created[w] |= b
		}
	}
	return total
}

// OrderDP is Algorithm 4: exact dynamic programming over query subsets,
// returning an order minimizing Eq. 1. Panics if len(items) > MaxDPQueries
// (callers must cluster first; see Order).
//
// The recurrence exploits that the unnormalized objective
// F(order) = Σ_k Σ_{j≤k} z_j satisfies
// F(S ∘ q) = F(S) + totalCost(S) + z_q(S), where totalCost(S) is the
// creation cost of the union of S's indexes — a function of the *set* S
// only. This is exactly the principle-of-optimality property proved in
// Theorem 5.2.
func OrderDP(items []Item, cost IndexCost) []Item {
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
	// dpTotal is totalCost(S), summed along the path that set dpCost[S]:
	// equal for every path in exact arithmetic, but not in floating point.
	dpTotal := make([]float64, size)
	dpPrev := make([]int8, size) // last item appended for reconstruction
	for mask := 1; mask < size; mask++ {
		dpCost[mask] = math.Inf(1)
		dpPrev[mask] = -1
	}

	// Union index sets per subset as bitsets, carved from one contiguous
	// backing slice — the per-transition incremental cost is then a handful
	// of word operations instead of a sorted string-map walk. A union
	// depends on the set alone, so each is built once, before its subset is
	// expanded, from the subset without its lowest item (a smaller mask,
	// already built) OR'd with that item's bits.
	w := sp.words
	unionBacking := make([]uint64, size*w)
	union := func(mask int) []uint64 { return unionBacking[mask*w : (mask+1)*w] }
	full := size - 1

	for mask := 1; mask < size; mask++ {
		low := bits.TrailingZeros(uint(mask))
		um, rest := union(mask), union(mask&(mask-1))
		for i := range um {
			um[i] = rest[i] | sp.itemBits[low][i]
		}
	}
	for mask := 0; mask < size; mask++ {
		if math.IsInf(dpCost[mask], 1) {
			continue
		}
		um := union(mask)
		// Expand by the items not yet in the subset, in ascending order.
		for free := full &^ mask; free != 0; free &= free - 1 {
			q := bits.TrailingZeros(uint(free))
			next := mask | 1<<q
			z := sp.incremental(sp.itemBits[q], um)
			c := dpCost[mask] + dpTotal[mask] + z
			if c < dpCost[next]-1e-12 {
				dpCost[next] = c
				dpTotal[next] = dpTotal[mask] + z
				dpPrev[next] = int8(q)
			}
		}
	}

	// Reconstruct.
	order := make([]Item, 0, n)
	mask := size - 1
	for mask != 0 {
		q := int(dpPrev[mask])
		order = append(order, items[q])
		mask &^= 1 << q
	}
	// Reverse (we rebuilt back-to-front).
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Order schedules queries for one configuration evaluation round: it builds
// items from the query→index map, clusters them down to MaxDPQueries when
// necessary (§5.4), runs the DP, and flattens the result back to a query
// order.
func Order(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost IndexCost, seed int64) []*engine.Query {
	if len(queries) == 0 {
		return nil
	}
	items := make([]Item, len(queries))
	for i, q := range queries {
		m := map[string]engine.IndexDef{}
		for _, d := range indexMap[q] {
			m[d.Key()] = d
		}
		items[i] = Item{Queries: []*engine.Query{q}, Indexes: m}
	}
	if len(items) > MaxDPQueries {
		items = Cluster(items, MaxDPQueries, seed)
	}
	ordered := OrderDP(items, cost)
	var out []*engine.Query
	for _, it := range ordered {
		out = append(out, it.Queries...)
	}
	return out
}
