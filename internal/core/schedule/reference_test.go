package schedule

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"lambdatune/internal/engine"
)

// This file keeps the map-based scheduler as it stood before Order moved
// onto one shared index space and OrderDP onto the pruned flat loop: Order,
// Cluster and OrderDP with their own index space, copied verbatim apart from
// the names. Order must return exactly orderReference's permutation.

// OrderReference exports orderReference to the external tests.
var OrderReference = orderReference

// indexSpaceReference is the per-call index space of the reference: ids in
// sorted-key order, one bitset slice per item.
type indexSpaceReference struct {
	costs    []float64
	words    int
	itemBits [][]uint64
}

func newIndexSpaceReference(items []Item, cost IndexCost) indexSpaceReference {
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
	sp := indexSpaceReference{costs: make([]float64, len(keys)), words: (len(keys) + 63) / 64}
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

func (sp *indexSpaceReference) incremental(itemBits, created []uint64) float64 {
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

// orderDPUnprunedReference is OrderDP before pruning: free-item expansion
// over per-subset unions, every transition summing its z.
func orderDPUnprunedReference(items []Item, cost IndexCost) []Item {
	n := len(items)
	if n == 0 {
		return nil
	}
	if n > MaxDPQueries {
		panic("schedule: OrderDP input exceeds MaxDPQueries; cluster first")
	}
	sp := newIndexSpaceReference(items, cost)
	size := 1 << n
	dpCost := make([]float64, size)
	dpTotal := make([]float64, size)
	dpPrev := make([]int8, size)
	for mask := 1; mask < size; mask++ {
		dpCost[mask] = math.Inf(1)
		dpPrev[mask] = -1
	}

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

// clusterReference is Cluster on string keys: dimensions from each item's
// sorted keys, clusters merging their members' maps.
func clusterReference(items []Item, k int, seed int64) []Item {
	if len(items) <= k {
		return items
	}
	dims := map[string]int{}
	for _, it := range items {
		keys := make([]string, 0, len(it.Indexes))
		for key := range it.Indexes {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			if _, ok := dims[key]; !ok {
				dims[key] = len(dims)
			}
		}
	}
	d := len(dims)
	if d == 0 {
		merged := Item{Indexes: map[string]engine.IndexDef{}}
		for _, it := range items {
			merged.Queries = append(merged.Queries, it.Queries...)
		}
		return []Item{merged}
	}
	vecs := make([][]float64, len(items))
	for i, it := range items {
		v := make([]float64, d)
		for key := range it.Indexes {
			v[dims[key]] = 1
		}
		vecs[i] = v
	}

	rng := rand.New(rand.NewSource(seed))
	centers := kmeansPlusPlusInit(vecs, k, rng)
	assign := make([]int, len(vecs))
	counts := make([]int, k)
	next := make([][]float64, k)
	nextBacking := make([]float64, k*d)
	for c := range next {
		next[c] = nextBacking[c*d : (c+1)*d : (c+1)*d]
	}
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if dist := sqDist(v, ctr); dist < bestD {
					best, bestD = c, dist
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for c := range counts {
			counts[c] = 0
		}
		for i := range nextBacking {
			nextBacking[i] = 0
		}
		for i, v := range vecs {
			c := assign[i]
			counts[c]++
			for j, x := range v {
				next[c][j] += x
			}
		}
		for c := range next {
			if counts[c] == 0 {
				continue
			}
			for j := range next[c] {
				centers[c][j] = next[c][j] / float64(counts[c])
			}
		}
	}

	byCluster := make([]Item, 0, k)
	for c := 0; c < k; c++ {
		merged := Item{Indexes: map[string]engine.IndexDef{}}
		for i, it := range items {
			if assign[i] != c {
				continue
			}
			merged.Queries = append(merged.Queries, it.Queries...)
			for key, def := range it.Indexes {
				merged.Indexes[key] = def
			}
		}
		if len(merged.Queries) > 0 {
			byCluster = append(byCluster, merged)
		}
	}
	return byCluster
}

// orderReference is Order on per-query key maps: cluster, DP, flatten.
func orderReference(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost IndexCost, seed int64) []*engine.Query {
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
		items = clusterReference(items, MaxDPQueries, seed)
	}
	ordered := orderDPUnprunedReference(items, cost)
	var out []*engine.Query
	for _, it := range ordered {
		out = append(out, it.Queries...)
	}
	return out
}
