package schedule

import (
	"math"
	"math/rand"
	"sort"

	"lambdatune/internal/engine"
)

// Cluster groups items into at most k clusters by k-means over binary index
// vectors with Euclidean distance (paper §5.4). Each returned Item merges the
// member queries and the union of their index sets. Queries with identical
// index dependencies naturally collapse into one cluster.
func Cluster(items []Item, k int, seed int64) []Item {
	if len(items) <= k {
		return items
	}
	// Assign each distinct index a vector dimension.
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
		// No indexes anywhere: order is irrelevant; one merged cluster.
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

	// Merge members per cluster, preserving input order within clusters.
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
