// Package schedule implements λ-Tune's query-ordering component (paper §5.2-
// §5.4): the expected index-creation cost model (Eq. 1), the dynamic-
// programming scheduler (Algorithm 4), and the k-means query clustering that
// bounds the DP's exponential input size at 13.
package schedule

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"lambdatune/internal/engine"
)

// MaxDPQueries caps the DP input size (paper §5.4: "we strictly limit the
// input to our algorithm to a manageable size of 13 queries").
const MaxDPQueries = 13

// IndexCost supplies the creation cost of an index. The scheduler calls it
// once per distinct index key (IndexDef.Key), so it must depend on the key
// alone — Table and Columns, never Name — as Memo's key already assumes.
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
// unions. Ids are assigned in sorted-key order and per-index costs are
// computed once per space; iterating set bits in ascending id order then
// reproduces the historical "sort the keys, sum the costs" order exactly, so
// every floating-point sum — and with it every scheduling decision — stays
// bit-identical to the map-based implementation.
type indexSpace struct {
	costs []float64 // creation cost per index id; nil when built without costs
	words int       // bitset width in uint64 words
	// bits holds one row per item, words long: row i is item i's index set.
	bits []uint64
	// itemBits[i] is row i of bits.
	itemBits [][]uint64
}

// spaceBuilder collects the distinct index keys of one scheduling input in
// first-seen order, with each item's memberships, and then renumbers the
// keys in sorted order.
type spaceBuilder struct {
	ids     map[string]int    // key → first-seen id
	defs    []engine.IndexDef // by first-seen id
	members []member
	key     []byte // scratch for the key of the def being added
}

// member records that item holds the index with first-seen id.
type member struct{ item, id int }

// newSpaceBuilder returns a builder sized for members memberships.
func newSpaceBuilder(members int) *spaceBuilder {
	return &spaceBuilder{ids: make(map[string]int), members: make([]member, 0, members)}
}

// add records def in item's set. The key string is materialized only on
// first sight.
func (b *spaceBuilder) add(item int, def engine.IndexDef) {
	b.key = append(append(append(append(b.key[:0], def.Table...), '('), def.Columns...), ')')
	id, ok := b.ids[string(b.key)]
	if !ok {
		id = len(b.defs)
		b.ids[string(b.key)] = id
		b.defs = append(b.defs, def)
	}
	b.members = append(b.members, member{item, id})
}

// build lays out n item rows over the sorted key order. cost is called once
// per key, in sorted order, with the definition seen first; a nil cost
// leaves costs nil (clustering reads only the sets).
func (b *spaceBuilder) build(n int, cost IndexCost) indexSpace {
	keys := make([]string, 0, len(b.ids))
	for k := range b.ids {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rank := make([]int, len(keys)) // first-seen id → sorted id
	for r, k := range keys {
		rank[b.ids[k]] = r
	}
	sp := indexSpace{words: (len(keys) + 63) / 64}
	if cost != nil {
		sp.costs = make([]float64, len(keys))
		for r, k := range keys {
			sp.costs[r] = cost(b.defs[b.ids[k]])
		}
	}
	sp.bits = make([]uint64, n*sp.words)
	for _, m := range b.members {
		r := rank[m.id]
		sp.bits[m.item*sp.words+r/64] |= 1 << (r % 64)
	}
	sp.itemBits = make([][]uint64, n)
	for i := range sp.itemBits {
		sp.itemBits[i] = sp.bits[i*sp.words : (i+1)*sp.words : (i+1)*sp.words]
	}
	return sp
}

// newIndexSpace builds the index space of items. Their Indexes maps are
// keyed by IndexDef.Key, so each definition yields its own map key.
func newIndexSpace(items []Item, cost IndexCost) indexSpace {
	m := 0
	for _, it := range items {
		m += len(it.Indexes)
	}
	b := newSpaceBuilder(m)
	for i, it := range items {
		for _, def := range it.Indexes {
			b.add(i, def)
		}
	}
	return b.build(len(items), cost)
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

// dpArrays is the DP's per-subset scratch: 2^n entries each, 208 KB for a
// 13-item call, so calls reuse them through dpPool. Every entry a call reads
// is written by that call first (see orderSets), so a reused buffer needs no
// clearing beyond the DP's own initialization.
type dpArrays struct {
	cost, total []float64
	prev        []int8
	unions      []uint64
	created     []uint64 // the greedy order's union, words long
}

var dpPool = sync.Pool{New: func() any { return new(dpArrays) }}

// The subset bound's margin: a subset is skipped only when its lower bound
// exceeds the greedy cost by more than boundRel times that cost plus
// boundAbs. Both dwarf float rounding and the DP's 1e-12 tie window.
const (
	boundRel = 1e-9
	boundAbs = 1e-9
)

// orderSets is the DP core of Algorithm 4. It orders n sets given as rows of
// sets (words wide) over index ids costing costs, and returns the row
// positions in an order minimizing Eq. 1, and how many subsets it expanded.
//
// The recurrence exploits that the unnormalized objective
// F(order) = Σ_k Σ_{j≤k} z_j satisfies
// F(S ∘ q) = F(S) + totalCost(S) + z_q(S), where totalCost(S) is the
// creation cost of the union of S's indexes — a function of the *set* S
// only. This is exactly the principle-of-optimality property proved in
// Theorem 5.2.
//
// Pruning applies only when every cost is ≥ 0; a negative or NaN cost turns
// it off for the whole call, and the DP expands every reached subset.
//
//   - Transitions. S → S∪{q} costs base + z with base = dpCost[S] + dpTotal[S],
//     and it wins only when that sum is below dpCost[S∪{q}] − 1e-12. Since
//     z ≥ 0 and rounding is monotone, base + z ≥ base: a base that is not
//     below that bound cannot win, and its z is never summed.
//   - Subsets. UB is the cost of the greedy order (each step appends the row
//     with the smallest z), computed with the DP's own recurrence, and T_full
//     is the cost of the union of all rows. Any completion of S, with m ≥ 1
//     rows left, adds m prefix totals; none is below totalCost(S), and the
//     last is T_full. So f(S) = dpCost[S] + (m−1)·dpTotal[S] + T_full bounds
//     every order through S from below, and S is not expanded when f(S)
//     exceeds UB by more than the margin (boundRel, boundAbs).
//
// The subset bound is exact. dpTotal never decreases along a transition, so
// f never decreases along one that sets dpCost, and the last subset's
// f(full) = dpCost[full] ≤ UB. So every subset on the returned path, and
// every predecessor whose offer sets or ties (within 1e-12) a path subset's
// cost, has f ≤ UB up to rounding and is expanded with the values the
// unbounded DP gives it. A skipped subset's offers, and any offer that
// derives from one, lose to the path's by far more than the tie window, so
// the path, its costs and its tie-breaks are those of the unbounded DP.
//
// unions[S], the union of S's sets, is written when S is first reached, from
// the reaching subset's union. Subsets are expanded in increasing order,
// after all their predecessors, so none is read before it is written, and
// subsets the DP never reaches cost nothing.
func orderSets(costs []float64, words int, sets []uint64, n int) ([]int, int) {
	prune := true
	for _, c := range costs {
		if !(c >= 0) {
			prune = false
			break
		}
	}
	size := 1 << n
	a := dpPool.Get().(*dpArrays)
	if cap(a.cost) < size {
		a.cost = make([]float64, size)
		a.total = make([]float64, size)
		a.prev = make([]int8, size)
	}
	if cap(a.unions) < size*words {
		a.unions = make([]uint64, size*words)
	}
	if cap(a.created) < words {
		a.created = make([]uint64, words)
	}
	dpCost, dpTotal, dpPrev := a.cost[:size], a.total[:size], a.prev[:size]
	// dpTotal[S] is totalCost(S), summed along the path that set dpCost[S]:
	// equal for every path in exact arithmetic, but not in floating point.
	// It is read only for subsets this call reached, which wrote it first.
	unions := a.unions[:size*words]
	dpCost[0], dpTotal[0] = 0, 0
	for mask := 1; mask < size; mask++ {
		dpCost[mask] = math.Inf(1)
		dpPrev[mask] = -1 // last item appended, for reconstruction
	}
	clear(unions[:words])

	// The subset bound: skip S when f(S) > limit. Without pruning, limit
	// stays +Inf and nothing is skipped.
	limit, tFull := math.Inf(1), 0.0
	if prune {
		ub := greedyCost(costs, words, sets, n, a.created[:words])
		limit = ub + ub*boundRel + boundAbs
		// The greedy order left the union of every row in created.
		for i, w := range a.created[:words] {
			for ; w != 0; w &= w - 1 {
				tFull += costs[i*64+bits.TrailingZeros64(w)]
			}
		}
	}

	full := size - 1
	expanded := 0
	for mask := 0; mask < full; mask++ {
		if math.IsInf(dpCost[mask], 1) {
			continue
		}
		if left := n - bits.OnesCount(uint(mask)); dpCost[mask]+float64(left-1)*dpTotal[mask]+tFull > limit {
			continue
		}
		expanded++
		base := dpCost[mask] + dpTotal[mask]
		um := mask * words
		// Expand by the items not yet in the subset, in ascending order.
		for free := full &^ mask; free != 0; free &= free - 1 {
			q := bits.TrailingZeros(uint(free))
			next := mask | 1<<q
			bound := dpCost[next] - 1e-12
			if prune && !(base < bound) {
				continue
			}
			// z_q(S): the costs of q's indexes outside S's union, summed in
			// ascending id order.
			var z float64
			row := q * words
			for i := 0; i < words; i++ {
				for d := sets[row+i] &^ unions[um+i]; d != 0; d &= d - 1 {
					z += costs[i*64+bits.TrailingZeros64(d)]
				}
			}
			if c := base + z; c < bound {
				if math.IsInf(bound, 1) {
					// First reached: its union is this subset's plus q's row.
					nm := next * words
					for i := 0; i < words; i++ {
						unions[nm+i] = unions[um+i] | sets[row+i]
					}
				}
				dpCost[next] = c
				dpTotal[next] = dpTotal[mask] + z
				dpPrev[next] = int8(q)
			}
		}
	}

	// Reconstruct back to front.
	order := make([]int, n)
	mask := full
	for i := n - 1; i >= 0; i-- {
		q := int(dpPrev[mask])
		order[i] = q
		mask &^= 1 << q
	}
	dpPool.Put(a)
	return order, expanded
}

// greedyCost is the DP objective of the greedy order over the n rows of
// sets: each step appends the row whose z against the created set is
// smallest (the first on ties), and the cost grows by the DP's own
// recurrence, (cost + total) + z. created must be words long; it is cleared
// first and holds the union of every row on return.
func greedyCost(costs []float64, words int, sets []uint64, n int, created []uint64) float64 {
	clear(created)
	var cost, total float64
	used := 0
	for step := 0; step < n; step++ {
		best, bestZ := -1, 0.0
		for q := 0; q < n; q++ {
			if used&(1<<q) != 0 {
				continue
			}
			var z float64
			row := q * words
			for i, c := range created {
				for d := sets[row+i] &^ c; d != 0; d &= d - 1 {
					z += costs[i*64+bits.TrailingZeros64(d)]
				}
			}
			if best < 0 || z < bestZ {
				best, bestZ = q, z
			}
		}
		cost = cost + total + bestZ
		total += bestZ
		used |= 1 << best
		row := best * words
		for i := range created {
			created[i] |= sets[row+i]
		}
	}
	return cost
}

// OrderDP is Algorithm 4: exact dynamic programming over query subsets,
// returning an order minimizing Eq. 1. Panics if len(items) > MaxDPQueries
// (callers must cluster first; see Order). It is an adapter over the same
// DP core Order runs: the items' index sets become bitset rows of one index
// space.
func OrderDP(items []Item, cost IndexCost) []Item {
	n := len(items)
	if n == 0 {
		return nil
	}
	if n > MaxDPQueries {
		panic("schedule: OrderDP input exceeds MaxDPQueries; cluster first")
	}
	sp := newIndexSpace(items, cost)
	order := make([]Item, n)
	rows, _ := orderSets(sp.costs, sp.words, sp.bits, n)
	for i, p := range rows {
		order[i] = items[p]
	}
	return order
}

// Order schedules queries for one configuration evaluation round: it clusters
// them down to MaxDPQueries when necessary (§5.4), runs the DP, and flattens
// the result back to a query order.
//
// Everything runs on one index space per call: the distinct index keys of
// indexMap, sorted, with each query's set as a bitset row and cost called
// once per key. k-means reads the rows as its vectors, a cluster's row is
// the OR of its members' rows, and the DP takes the rows directly. The order
// equals the one OrderDP(Cluster(items)) returns for the equivalent items.
func Order(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost IndexCost, seed int64) []*engine.Query {
	n := len(queries)
	if n == 0 {
		return nil
	}
	sp := querySpace(queries, indexMap, cost)
	out := make([]*engine.Query, 0, n)
	if n <= MaxDPQueries {
		rows, _ := orderSets(sp.costs, sp.words, sp.bits, n)
		for _, p := range rows {
			out = append(out, queries[p])
		}
		return out
	}
	clusters := kmeans(sp, n, MaxDPQueries, seed)
	w := sp.words
	rows := make([]uint64, len(clusters)*w)
	for c, members := range clusters {
		row := rows[c*w : (c+1)*w]
		for _, i := range members {
			for j, x := range sp.itemBits[i] {
				row[j] |= x
			}
		}
	}
	seq, _ := orderSets(sp.costs, w, rows, len(clusters))
	for _, c := range seq {
		for _, i := range clusters[c] {
			out = append(out, queries[i])
		}
	}
	return out
}

// querySpace builds the index space of queries under indexMap: query i's
// set is row i.
func querySpace(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost IndexCost) indexSpace {
	m := 0
	for _, q := range queries {
		m += len(indexMap[q])
	}
	b := newSpaceBuilder(m)
	for i, q := range queries {
		for _, d := range indexMap[q] {
			b.add(i, d)
		}
	}
	return b.build(len(queries), cost)
}
