package benchmark

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of values: the
// smallest value with at least q of the samples at or below it. It sorts a
// copy, so callers may pass unsorted data. Empty input yields 0.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// GeoMean returns the geometric mean of positive values (0 when empty or
// when any value is not positive).
func GeoMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

// Quartiles returns the first quartile, median and third quartile of values
// by the same rule as Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), so this program's spreads match the ones an outside
// checker computes from the same numbers. Fewer than two values yield that
// value (or 0) three times.
func Quartiles(values []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// Median is the middle quartile of values.
func Median(values []float64) float64 {
	_, m, _ := Quartiles(values)
	return m
}
