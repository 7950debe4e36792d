package obs

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety drives every entry point through nil receivers: the whole
// API must degrade to no-ops so untraced runs need no conditionals.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start(nil, "x", 0)
	if s != nil {
		t.Fatalf("nil tracer must return nil span, got %v", s)
	}
	s.SetAttrs(Int("a", 1))
	s.Event("e", 1)
	s.End(2)
	if got := s.Name(); got != "" {
		t.Fatalf("nil span name = %q", got)
	}
	if tr.Root() != nil || tr.Len() != 0 || tr.Records() != nil {
		t.Fatal("nil tracer must report empty state")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var reg *Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(1)
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if got := reg.String(); got != "{}" {
		t.Fatalf("nil registry String() = %q", got)
	}
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	Emitf(nil, 0, "round", "dropped")
	var cr *ConsoleReporter
	cr.Emit(ProgressEvent{})
}

// TestTraceTreeAndRecords pins DFS renumbering: children follow parents in
// creation order, ids are sequential, and wall fields come from the
// injected clock.
func TestTraceTreeAndRecords(t *testing.T) {
	tr := NewTracer()
	var tick int64
	tr.SetWallClock(func() time.Time {
		tick++
		return time.Unix(0, tick*1000)
	})
	run := tr.Start(nil, "run", 0, String("benchmark", "tpch-1"))
	a := tr.Start(run, "llm.sample", 0, Int("idx", 0))
	a.End(60)
	sel := tr.Start(run, "selection", 60)
	cand := tr.Start(sel, "candidate", 60, String("config", "llm-0"))
	q := tr.Start(cand, "query", 60, String("query", "q1"))
	q.End(70)
	cand.Event("verdict", 70, Bool("complete", true))
	cand.End(70)
	sel.End(70)
	run.End(70)

	if tr.Root() != run {
		t.Fatal("Root() must return the first root span")
	}
	recs := tr.Records()
	if err := ValidateRecords(recs); err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"run", "llm.sample", "selection", "candidate", "query"}
	wantParents := []int{0, 1, 1, 3, 4}
	if len(recs) != len(wantNames) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantNames))
	}
	for i, r := range recs {
		if r.Name != wantNames[i] || r.Parent != wantParents[i] || r.ID != i+1 {
			t.Errorf("record %d = {id %d, parent %d, name %s}, want {id %d, parent %d, name %s}",
				i, r.ID, r.Parent, r.Name, i+1, wantParents[i], wantNames[i])
		}
		if r.WallStartNS == 0 {
			t.Errorf("record %d: missing wall start", i)
		}
	}
	if recs[4].VirtStart != 60 || recs[4].VirtEnd != 70 {
		t.Errorf("query span virtual interval = [%g,%g], want [60,70]", recs[4].VirtStart, recs[4].VirtEnd)
	}
	if len(recs[3].Events) != 1 || recs[3].Events[0].Name != "verdict" {
		t.Errorf("candidate events = %+v, want one verdict", recs[3].Events)
	}
}

// TestShapeStringDeterministic checks that two identically-driven tracers
// with different wall clocks render byte-identical shapes.
func TestShapeStringDeterministic(t *testing.T) {
	build := func(epoch int64) string {
		tr := NewTracer()
		tr.SetWallClock(func() time.Time { return time.Unix(epoch, 0) })
		run := tr.Start(nil, "run", 0)
		c := tr.Start(run, "candidate", 1, String("config", "llm-0"), Float("timeout", 2.5))
		c.Event("verdict", 3, Bool("complete", false))
		c.End(3)
		run.End(3)
		return ShapeString(tr.Records())
	}
	a, b := build(1000), build(999999)
	if a != b {
		t.Fatalf("shape depends on wall clock:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "candidate [1,3] config=llm-0 timeout=2.5") {
		t.Errorf("shape missing candidate line:\n%s", a)
	}
	if !strings.Contains(a, "@3 verdict complete=false") {
		t.Errorf("shape missing event line:\n%s", a)
	}
}

// TestAnnotAttributes: Annot-marked attributes export in the annots field,
// survive a JSONL round trip, and are scrubbed from the trace shape — two
// runs differing only in annotation values produce identical shapes.
func TestAnnotAttributes(t *testing.T) {
	build := func(hit bool) (*Tracer, string) {
		tr := NewTracer()
		run := tr.Start(nil, "run", 0)
		sch := tr.Start(run, "schedule", 1, Bool("scheduler", true), Annot(Bool("memo_hit", hit)))
		sch.Event("probe", 2, Int("n", 1), Annot(Bool("cached", hit)))
		sch.End(2)
		run.End(2)
		return tr, ShapeString(tr.Records())
	}
	tr, a := build(true)
	_, b := build(false)
	if a != b {
		t.Fatalf("shape depends on annotation values:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(a, "memo_hit") || strings.Contains(a, "cached") {
		t.Fatalf("annotations leaked into the shape:\n%s", a)
	}
	if !strings.Contains(a, "schedule [1,2] scheduler=true") {
		t.Errorf("deterministic attrs missing from the shape:\n%s", a)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sch := recs[1]
	if sch.Annots["memo_hit"] != true {
		t.Errorf("span annots lost in round trip: %+v", sch.Annots)
	}
	if _, ok := sch.Attrs["memo_hit"]; ok {
		t.Errorf("annotation duplicated into attrs: %+v", sch.Attrs)
	}
	ev := sch.Events[0]
	if ev.Annots["cached"] != true || ev.Attrs["n"].(float64) != 1 {
		t.Errorf("event attr split drifted: attrs=%+v annots=%+v", ev.Attrs, ev.Annots)
	}
}

// TestJSONLRoundTrip writes records out and reads them back.
func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	run := tr.Start(nil, "run", 0, Int("samples", 3))
	s := tr.Start(run, "llm.sample", 0)
	s.Event("llm.retry", 2, Int("attempt", 1), Float("backoff", 1.5))
	s.End(4)
	run.End(4)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Records()
	if len(got) != len(want) {
		t.Fatalf("round trip lost records: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Parent != want[i].Parent ||
			got[i].VirtStart != want[i].VirtStart || got[i].VirtEnd != want[i].VirtEnd {
			t.Errorf("record %d drifted: got %+v want %+v", i, got[i], want[i])
		}
	}
	// JSON numbers decode as float64; the retry attrs must survive.
	ev := got[1].Events[0]
	if ev.Attrs["attempt"].(float64) != 1 || ev.Attrs["backoff"].(float64) != 1.5 {
		t.Errorf("event attrs lost in round trip: %+v", ev.Attrs)
	}
}

// TestValidateRecords exercises the schema checks against broken traces.
func TestValidateRecords(t *testing.T) {
	ok := []SpanRecord{{ID: 1, Name: "run"}, {ID: 2, Parent: 1, Name: "q", VirtStart: 1, VirtEnd: 2}}
	if err := ValidateRecords(ok); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	cases := []struct {
		name string
		recs []SpanRecord
	}{
		{"empty", nil},
		{"id gap", []SpanRecord{{ID: 2, Name: "run"}}},
		{"no name", []SpanRecord{{ID: 1}}},
		{"forward parent", []SpanRecord{{ID: 1, Name: "run", Parent: 2}}},
		{"negative start", []SpanRecord{{ID: 1, Name: "run", VirtStart: -1}}},
		{"inverted interval", []SpanRecord{{ID: 1, Name: "run", VirtStart: 5, VirtEnd: 4}}},
		{"unnamed event", []SpanRecord{{ID: 1, Name: "run", Events: []EventRecord{{}}}}},
	}
	for _, tc := range cases {
		if err := ValidateRecords(tc.recs); err == nil {
			t.Errorf("%s: invalid trace accepted", tc.name)
		}
	}
}

// TestRegistry covers counter/gauge/histogram semantics and both export
// dialects.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tuner_rounds_total")
	c.Inc()
	c.Add(2)
	c.Add(-5) // counters never decrease
	if c.Value() != 3 {
		t.Errorf("counter = %g, want 3", c.Value())
	}
	if r.Counter("tuner_rounds_total") != c {
		t.Error("counter handle not cached")
	}
	g := r.Gauge("tuner_best_seconds")
	g.Set(10.5)
	g.Add(-0.5)
	if g.Value() != 10 {
		t.Errorf("gauge = %g, want 10", g.Value())
	}
	h := r.Histogram("backend_run_query_virtual_seconds")
	for _, v := range []float64{0.5, 2, 2, 1e5} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 100004.5 {
		t.Errorf("histogram count=%d sum=%g", h.Count(), h.Sum())
	}

	snap := r.Snapshot()
	if snap["tuner_rounds_total"] != 3 || snap["tuner_best_seconds"] != 10 ||
		snap["backend_run_query_virtual_seconds_count"] != 4 {
		t.Errorf("snapshot = %v", snap)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE tuner_rounds_total counter\ntuner_rounds_total 3",
		"# TYPE tuner_best_seconds gauge\ntuner_best_seconds 10",
		"# TYPE backend_run_query_virtual_seconds histogram",
		`backend_run_query_virtual_seconds_bucket{le="1"} 1`,
		`backend_run_query_virtual_seconds_bucket{le="10"} 3`,
		`backend_run_query_virtual_seconds_bucket{le="+Inf"} 4`,
		"backend_run_query_virtual_seconds_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus export missing %q:\n%s", want, text)
		}
	}

	js := r.String()
	if !strings.Contains(js, `"tuner_rounds_total": 3`) || !strings.HasPrefix(js, "{") || !strings.HasSuffix(js, "}") {
		t.Errorf("expvar export = %s", js)
	}
}

// TestMetricSuffix pins the one rule that turns a tenant name into a metric
// suffix: lowercase [a-z0-9_], everything else '_' (one per character), and
// "" mapped to "default".
func TestMetricSuffix(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "default"},
		{"tenant-3", "tenant_3"},
		{"hot", "hot"},
		{"warm_2", "warm_2"},
		{"Acme-1", "acme_1"},
		{"a.b c/d", "a_b_c_d"},
		{"MiXeD42", "mixed42"},
		{"zürich", "z_rich"},
	} {
		if got := MetricSuffix(tc.in); got != tc.want {
			t.Errorf("MetricSuffix(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestRegistryConcurrent hammers one counter, gauge and histogram from many
// goroutines; run under -race this also proves the handles are safe.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Errorf("counter = %g, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != workers*per {
		t.Errorf("gauge = %g, want %d", got, workers*per)
	}
	if got := r.Histogram("h").Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestSummarizeFixture classifies the checked-in fixture trace and pins the
// per-phase breakdown (the same fixture backs the trace-summary CLI test).
func TestSummarizeFixture(t *testing.T) {
	recs, err := ReadFile(filepath.Join("testdata", "fixture.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRecords(recs); err != nil {
		t.Fatal(err)
	}
	s := Summarize(recs)
	if s.Spans != 12 || s.Events != 2 {
		t.Fatalf("spans=%d events=%d, want 12/2", s.Spans, s.Events)
	}
	got := map[string]PhaseCost{}
	for _, p := range s.Phases {
		got[p.Phase] = p
	}
	want := map[string]struct {
		spans int
		virt  float64
	}{
		PhaseLLM:      {2, 120},
		PhaseEval:     {2, 69.5},
		PhaseIndex:    {1, 10},
		PhasePrompt:   {1, 0.5},
		PhaseSchedule: {1, 0},
	}
	for phase, w := range want {
		p, ok := got[phase]
		if !ok {
			t.Errorf("phase %s missing from summary", phase)
			continue
		}
		if p.Spans != w.spans || math.Abs(p.VirtSeconds-w.virt) > 1e-9 {
			t.Errorf("phase %s = {spans %d, virt %g}, want {%d, %g}", phase, p.Spans, p.VirtSeconds, w.spans, w.virt)
		}
	}
	// Phases sort by descending virtual spend: llm first.
	if s.Phases[0].Phase != PhaseLLM {
		t.Errorf("top phase = %s, want llm", s.Phases[0].Phase)
	}
	// The schedule span carries wall-only cost (500ns).
	if sched := got[PhaseSchedule]; sched.WallSeconds != 5e-7 {
		t.Errorf("schedule wall seconds = %g, want 5e-7", sched.WallSeconds)
	}

	table := SummaryTable(s)
	for _, want := range []string{"phase", "llm", "eval", "index-build", "total", "spans=12 events=2"} {
		if !strings.Contains(table, want) {
			t.Errorf("summary table missing %q:\n%s", want, table)
		}
	}
}

// TestContextSpan round-trips a span through context.
func TestContextSpan(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(nil, "llm.sample", 0)
	ctx := ContextWithSpan(nil, s)
	if got := SpanFromContext(ctx); got != s {
		t.Fatal("span lost in context round trip")
	}
	if SpanFromContext(nil) != nil {
		t.Fatal("nil context must yield nil span")
	}
	if got := ContextWithSpan(nil, nil); SpanFromContext(got) != nil {
		t.Fatal("nil span must not be stored")
	}
}

// TestEndIdempotent pins first-End-wins semantics.
func TestEndIdempotent(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(nil, "run", 0)
	s.End(5)
	s.End(9)
	recs := tr.Records()
	if recs[0].VirtEnd != 5 {
		t.Fatalf("second End overwrote the first: virt_end=%g", recs[0].VirtEnd)
	}
}

// TestTracerSummarizeMatchesRecords pins the direct span-walk Summarize to
// the record-based aggregation: same spans, same events, same phase buckets
// in the same order, including the open-span and inverted-interval clamps.
func TestTracerSummarizeMatchesRecords(t *testing.T) {
	tr := NewTracer()
	var tick int64
	tr.SetWallClock(func() time.Time {
		tick++
		return time.Unix(0, tick*1000)
	})
	run := tr.Start(nil, "run", 0)
	l := tr.Start(run, "llm.sample", 0)
	l.End(60)
	q := tr.Start(run, "query", 60, String("query", "q1"))
	q.Event("timeout", 65)
	q.End(70)
	ix := tr.Start(run, "index.build", 70)
	ix.End(68)                    // inverted interval: export clamps end to start
	tr.Start(run, "schedule", 70) // left open: virt_end == virt_start
	run.End(70)

	got := tr.Summarize()
	want := Summarize(tr.Records())
	if got.Spans != want.Spans || got.Events != want.Events {
		t.Fatalf("totals = {spans %d, events %d}, want {spans %d, events %d}",
			got.Spans, got.Events, want.Spans, want.Events)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("got %d phases, want %d", len(got.Phases), len(want.Phases))
	}
	for i := range want.Phases {
		g, w := got.Phases[i], want.Phases[i]
		if g.Phase != w.Phase || g.Spans != w.Spans ||
			math.Abs(g.VirtSeconds-w.VirtSeconds) > 1e-12 ||
			math.Abs(g.WallSeconds-w.WallSeconds) > 1e-12 {
			t.Errorf("phase %d = %+v, want %+v", i, g, w)
		}
	}
}
