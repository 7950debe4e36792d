package benchmark

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Label is a comparator verdict for one workload × end-to-end metric.
type Label string

// The verdicts, by the rules of the choosing-metrics guide (§8): a gain
// needs at least 9 in 10 pair wins and a median gap wider than the base's
// quartile spread; a regression is a median worse by more than the metric's
// bound; a metric whose spread is wider than its bound is unresolved unless
// every head run beats every base run.
const (
	Gain       Label = "gain"
	Regression Label = "regression"
	Unresolved Label = "unresolved"
	Unchanged  Label = "unchanged"
)

// side summarizes one commit's runs of a metric.
type side struct{ Q1, Median, Q3 float64 }

func summarize(values []float64) side {
	q1, m, q3 := Quartiles(values)
	return side{Q1: q1, Median: m, Q3: q3}
}

// Verdict compares head runs with base runs of one metric. Runs are paired
// by index: base[i] and head[i] ran with the same seed.
func Verdict(def MetricDef, base, head []float64) Label {
	b, h := summarize(base), summarize(head)
	better := func(x, y float64) bool { // x better than y
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) &&
		better(h.Median, b.Median) && abs(h.Median-b.Median) > b.Q3-b.Q1 {
		return Gain
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, x := range head {
		for _, y := range base {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	if spread(b) > def.Bound || spread(h) > def.Bound {
		if allBetter {
			return Unchanged
		}
		return Unresolved
	}
	if worse := (h.Median - b.Median) / b.Median; (def.Better == "higher" && -worse > def.Bound) ||
		(def.Better == "lower" && worse > def.Bound) {
		return Regression
	}
	return Unchanged
}

// spread is a side's quartile distance as a share of its median.
func spread(s side) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / abs(s.Median)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// loadReports reads every untraced report in dir, grouped by workload and
// sorted by seed.
func loadReports(dir string) (map[string][]Report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]Report{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced lambdabench reports", dir)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// Compare reads two directories of reports (see lambdabench -json) and
// renders one row per workload × end-to-end metric: each side's median and
// quartiles, and the verdict. Runs pair by seed.
func Compare(baseDir, headDir string) (string, error) {
	base, err := loadReports(baseDir)
	if err != nil {
		return "", err
	}
	head, err := loadReports(headDir)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-17s %-15s %6s %28s %28s %6s  %s\n", "workload", "metric", "bound", "base q1/median/q3", "head q1/median/q3", "pairs", "verdict")
	for _, w := range Workloads {
		bs, hs := base[w.Name], head[w.Name]
		if len(bs) == 0 || len(hs) == 0 {
			continue
		}
		// Pair runs by seed; runs without a partner are left out.
		bySeed := map[int64]Report{}
		for _, r := range hs {
			bySeed[r.Seed] = r
		}
		for _, def := range EndToEnd {
			var bv, hv []float64
			for _, r := range bs {
				if h, ok := bySeed[r.Seed]; ok {
					bv = append(bv, r.Result.Metrics[def.Name].Value)
					hv = append(hv, h.Result.Metrics[def.Name].Value)
				}
			}
			if len(bv) == 0 {
				continue
			}
			sb, sh := summarize(bv), summarize(hv)
			fmt.Fprintf(&b, "%-17s %-15s %5.0f%% %9.4g/%8.4g/%8.4g %9.4g/%8.4g/%8.4g %6d  %s\n",
				w.Name, def.Name, 100*def.Bound, sb.Q1, sb.Median, sb.Q3, sh.Q1, sh.Median, sh.Q3, len(bv), Verdict(def, bv, hv))
		}
	}
	return b.String(), nil
}
