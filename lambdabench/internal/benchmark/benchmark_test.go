package benchmark

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lambdatune/internal/service"
)

func TestMixesAreDeterministicPerSeed(t *testing.T) {
	for _, w := range Workloads {
		a, b, c := w.Mix(7), w.Mix(7), w.Mix(8)
		differs := false
		for i := 0; i < 500; i++ {
			if !reflect.DeepEqual(a(i), b(i)) {
				t.Fatalf("%s: job %d differs between two mixes of seed 7", w.Name, i)
			}
			if !reflect.DeepEqual(a(i), c(i)) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same 500 jobs", w.Name)
		}
	}
}

func TestChurnMixShape(t *testing.T) {
	mix := ChurnMix(3)
	const n = 4000
	hot, warm, cold := 0, 0, 0
	coldSeeds := map[int64]bool{}
	for i := 0; i < n; i++ {
		s := mix(i)
		switch {
		case s.Tenant == churnHotTenant:
			hot++
		case strings.HasPrefix(s.Tenant, "warm-"):
			warm++
		default:
			cold++
			if coldSeeds[s.Seed] {
				t.Fatalf("cold seed %d repeats", s.Seed)
			}
			coldSeeds[s.Seed] = true
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"hot", float64(hot) / n, 0.5}, {"warm", float64(warm) / n, 0.3}, {"cold", float64(cold) / n, 0.2}} {
		if math.Abs(c.got-c.want) > 0.03 {
			t.Errorf("%s share %.3f, want about %.2f", c.name, c.got, c.want)
		}
	}
}

func TestPaperMixBlocks(t *testing.T) {
	mix := PaperMix(5)
	first := map[scenario]int{}
	runs := map[scenario]int{}
	cells := map[[2]string]int{}
	for i := 0; i < 2*paperSeeds*len(paperBenchmarks)*len(paperDBMS); i++ {
		sc := scenarioOf(mix(i))
		runs[sc]++
		cell := [2]string{sc.Benchmark, sc.DBMS}
		cells[cell]++
		if (i+1)%paperBlock == 0 {
			for c, n := range cells {
				if n != paperBlock/len(cells) {
					t.Fatalf("block ending at %d runs %v %d times, want %d", i, c, n, paperBlock/len(cells))
				}
			}
			clear(cells)
		}
		if j, ok := first[sc]; ok {
			if i/paperBlock != j/paperBlock {
				t.Fatalf("%s runs at %d and %d, in different blocks", sc, j, i)
			}
		} else {
			first[sc] = i
		}
	}
	for sc, n := range runs {
		if n != 2 {
			t.Fatalf("%s runs %d times, want 2", sc, n)
		}
	}
	if len(runs) != paperSeeds*len(paperBenchmarks)*len(paperDBMS) {
		t.Errorf("covers %d scenarios, want %d", len(runs), paperSeeds*len(paperBenchmarks)*len(paperDBMS))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	values := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.90, 50}, {1, 50},
	} {
		if got := Percentile(values, c.q); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile of nothing = %v, want 0", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := Percentile(hundred, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2, 8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{1, 10, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("GeoMean(1, 10, 100) = %v, want 10", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{3, 0}) != 0 {
		t.Error("GeoMean of empty or non-positive input must be 0")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, m, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, m, q3 = Quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || m != 4 || q3 != 12 {
		t.Errorf("Quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, m, q3)
	}
}

func TestAtReferenceSpeedScalesTimesOnly(t *testing.T) {
	raw := map[string]float64{"jobs_per_s": 40, "job_p50_ms": 20, "job_p90_ms": 30, "cpu_ms_per_job": 50, "setup_s": 1, "heap_live_mb": 15}
	// A host running the reference at 0.8 of the calibration host's speed.
	got := atReferenceSpeed(raw, 0.8)
	want := map[string]float64{"jobs_per_s": 50, "job_p50_ms": 16, "job_p90_ms": 24, "cpu_ms_per_job": 40, "setup_s": 0.8, "heap_live_mb": 15}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	if raw["job_p50_ms"] != 20 {
		t.Error("atReferenceSpeed changed its input")
	}
	ref, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	ref.sample()
	if s := ref.speed(); !(s > 0) || len(ref.samples) != refSamples {
		t.Errorf("reference speed %v from %d samples", s, len(ref.samples))
	}
}

func TestVerdictLabels(t *testing.T) {
	lower := MetricDef{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := MetricDef{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name       string
		def        MetricDef
		base, head []float64
		want       Label
	}{
		{"faster in every pair", lower, base, shift(base, 0.8), Gain},
		{"same numbers", lower, base, base, Unchanged},
		{"slightly slower, inside the bound", lower, base, shift(base, 1.05), Unchanged},
		{"slower beyond the bound", lower, base, shift(base, 1.2), Regression},
		{"throughput beyond the bound", higher, base, shift(base, 0.8), Regression},
		{"throughput up in every pair", higher, base, shift(base, 1.2), Gain},
		{"spread wider than the bound", lower, base, noisy, Unresolved},
		// 8 of 10 pair wins is not enough for a gain.
		{"too few pair wins", lower, base, []float64{90, 91, 89, 90, 92, 88, 90, 91, 101, 102}, Unchanged},
	} {
		if got := Verdict(c.def, c.base, c.head); got != c.want {
			t.Errorf("%s: Verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReadsReportSets(t *testing.T) {
	base, head := t.TempDir(), t.TempDir()
	for seed := int64(1); seed <= 10; seed++ {
		for dir, p50 := range map[string]float64{base: 20 + float64(seed%3)*0.1, head: 15 + float64(seed%3)*0.1} {
			metrics := map[string]Metric{}
			for _, d := range EndToEnd {
				metrics[d.Name] = Metric{Value: 1, Unit: d.Unit}
			}
			metrics["job_p50_ms"] = Metric{Value: p50, Unit: "ms"}
			rep := Report{Workload: "daemon-hot", Seed: seed, Result: Result{Correct: true, Attempted: 1, Metrics: metrics}}
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, rep.Workload+"-"+string(rune('a'+seed))+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	table, err := Compare(base, head)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(table, "\n") {
		if strings.Contains(line, "job_p50_ms") && !strings.HasSuffix(line, string(Gain)) {
			t.Errorf("job_p50_ms row is not a gain:\n%s", table)
		}
		if strings.Contains(line, "jobs_per_s") && !strings.HasSuffix(line, string(Unchanged)) {
			t.Errorf("jobs_per_s row is not unchanged:\n%s", table)
		}
	}
}

func TestGateNamesTheMismatchedJob(t *testing.T) {
	spec := service.JobSpec{Benchmark: "tpch-1", Seed: 4}
	good := standaloneRun{}.run(spec)
	if !good.ok() {
		t.Fatal(good.err)
	}
	if _, err := gate([]jobOutcome{good}, true); err != nil {
		t.Fatalf("gate rejects a correct job: %v", err)
	}
	bad := good
	bad.id = "job-000042"
	r := *good.result
	r.TuningSeconds++
	bad.result = &r
	_, err := gate([]jobOutcome{bad}, true)
	if err == nil || !strings.Contains(err.Error(), "job-000042") {
		t.Fatalf("gate error %v does not name job-000042", err)
	}
}

// benchmarkJSON is the benchmark definition at the repository root.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\ncode           %+v", doc.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, PerLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\ncode           %+v", doc.PerLayer, PerLayer)
	}
}

// TestSmokeEveryWorkload runs each workload for a few jobs, untraced and
// traced, and checks it reports exactly the metrics BENCHMARK.json lists.
func TestSmokeEveryWorkload(t *testing.T) {
	doc := readBenchmarkJSON(t)
	names := func(defs []MetricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range Workloads {
		w := w
		w.Warmup = 2
		for _, traced := range []bool{false, true} {
			rep, err := Run(Options{Workload: &w, Seed: 1, Seconds: 0.1, Trace: traced, DataDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			res := rep.Result
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (traced %v): result %+v", w.Name, traced, res)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			want := names(doc.EndToEnd)
			if traced {
				want = names(doc.PerLayer)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (traced %v) reports %v, BENCHMARK.json lists %v", w.Name, traced, got, want)
			}
		}
	}
}
