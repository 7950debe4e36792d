package schedule

import (
	"maps"
	"math"
	"math/bits"
	"math/rand"

	"lambdatune/internal/engine"
)

// Cluster groups items into at most k clusters by k-means over binary index
// vectors with Euclidean distance (paper §5.4). Each returned Item merges the
// member queries and the union of their index sets. Queries with identical
// index dependencies naturally collapse into one cluster. It is an adapter
// over the k-means core Order runs, on the items' index space.
func Cluster(items []Item, k int, seed int64) []Item {
	if len(items) <= k {
		return items
	}
	clusters := kmeans(newIndexSpace(items, nil), len(items), k, seed)
	out := make([]Item, len(clusters))
	for c, members := range clusters {
		merged := Item{Indexes: map[string]engine.IndexDef{}}
		for _, i := range members {
			merged.Queries = append(merged.Queries, items[i].Queries...)
			maps.Copy(merged.Indexes, items[i].Indexes)
		}
		out[c] = merged
	}
	return out
}

// kmeans clusters the n rows of sp into at most k groups and returns each
// non-empty cluster's members: clusters in cluster order, members in input
// order. Row i becomes a 0/1 float vector. Its dimensions are the index ids
// in first-seen order over the rows, ascending inside a row — the order the
// map-based implementation derived from sorted keys — so every distance,
// center and random draw is bit-identical to it. Rows with no index at all
// form one cluster.
func kmeans(sp indexSpace, n, k int, seed int64) [][]int {
	dim := make([]int, sp.words*64) // index id → dimension + 1 (0: unseen)
	d := 0
	for _, row := range sp.itemBits {
		for w, b := range row {
			for ; b != 0; b &= b - 1 {
				if id := w*64 + bits.TrailingZeros64(b); dim[id] == 0 {
					d++
					dim[id] = d
				}
			}
		}
	}
	if d == 0 {
		// No indexes anywhere: order is irrelevant; one merged cluster.
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	vecs := make([][]float64, n)
	backing := make([]float64, n*d)
	for i, row := range sp.itemBits {
		v := backing[i*d : (i+1)*d : (i+1)*d]
		for w, b := range row {
			for ; b != 0; b &= b - 1 {
				v[dim[w*64+bits.TrailingZeros64(b)]-1] = 1
			}
		}
		vecs[i] = v
	}

	rng := rand.New(rand.NewSource(seed))
	centers := kmeansPlusPlusInit(vecs, k, rng)
	assign := make([]int, n)
	// Per-iteration accumulation buffers, allocated once and zeroed per
	// iteration instead of re-made inside the 50-iteration loop. Sums are
	// written back into the centers element-wise (never by slice swap), so
	// the buffers can be reused without aliasing the centers.
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
		// Early exit when no assignment moved. The iter > 0 guard is load-
		// bearing: assign starts all-zero, so a first pass that happens to
		// assign everything to cluster 0 must still recompute centers.
		if !changed && iter > 0 {
			break
		}
		// Recompute centers.
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
				continue // keep old center for empty clusters
			}
			for j := range next[c] {
				centers[c][j] = next[c][j] / float64(counts[c])
			}
		}
	}

	// Group members per cluster, preserving input order within clusters.
	members := make([]int, 0, n)
	clusters := make([][]int, 0, k)
	for c := 0; c < k; c++ {
		start := len(members)
		for i, a := range assign {
			if a == c {
				members = append(members, i)
			}
		}
		if len(members) > start {
			clusters = append(clusters, members[start:len(members):len(members)])
		}
	}
	return clusters
}

// kmeansPlusPlusInit seeds centers with the k-means++ strategy.
//
// dists[i] is point i's squared distance to its nearest center so far: each
// pick measures the points against the newest center only and keeps the
// running minimum. A minimum is exact whatever order it is taken in, so
// dists, their total and every random draw match re-measuring every center.
func kmeansPlusPlusInit(vecs [][]float64, k int, rng *rand.Rand) [][]float64 {
	centers := make([][]float64, 0, k)
	first := rng.Intn(len(vecs))
	centers = append(centers, append([]float64(nil), vecs[first]...))
	dists := make([]float64, len(vecs))
	for i := range dists {
		dists[i] = math.Inf(1)
	}
	for len(centers) < k {
		// Pick the next center proportional to squared distance.
		newest := centers[len(centers)-1]
		var total float64
		for i, v := range vecs {
			if d := sqDist(v, newest); d < dists[i] {
				dists[i] = d
			}
			total += dists[i]
		}
		if total == 0 {
			// All points coincide with centers; duplicate one.
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

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
