package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lambdatune"
	"lambdatune/internal/obs"
)

// The span encoder (Tracer.WriteJSONL, Tracer.WriteCreationJSONL) is held to
// the record-form encoder it replaced, kept verbatim in reference_test.go:
// the same bytes, and an error exactly where the reference fails.

// checkExport compares both export orders of tr against the reference, and
// the tracer's Summarize against the record-based one.
func checkExport(t *testing.T, tr *obs.Tracer) {
	t.Helper()
	var got, want bytes.Buffer
	gerr := tr.WriteJSONL(&got)
	werr := obs.WriteJSONL(&want, tr.Records())
	sameResult(t, "depth-first export", got.Bytes(), want.Bytes(), gerr, werr)

	n := tr.Len()
	for _, since := range []int{0, 1, n / 2, n - 1, n, n + 3} {
		got.Reset()
		want.Reset()
		lines, gerr := tr.WriteCreationJSONL(&got, since)
		werr := obs.WriteJSONL(&want, tr.CreationRecords(since))
		sameResult(t, fmt.Sprintf("creation export since %d", since), got.Bytes(), want.Bytes(), gerr, werr)
		if wantLines := bytes.Count(want.Bytes(), []byte{'\n'}); lines != wantLines {
			t.Fatalf("creation export since %d: reported %d lines, wrote %d", since, lines, wantLines)
		}
	}

	if gerr == nil {
		if g, w := summaryBits(tr.Summarize()), summaryBits(obs.Summarize(tr.Records())); g != w {
			t.Fatalf("Summarize drifted from the record-based summary:\n got  %s\n want %s", g, w)
		}
	}
}

func sameResult(t *testing.T, what string, got, want []byte, gerr, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: error %v, reference error %v", what, gerr, werr)
	}
	if !bytes.Equal(got, want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s: line %d differs:\n got  %q\n want %q", what, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines, reference %d", what, len(g)-1, len(w)-1)
	}
}

// summaryBits renders a summary with its floats as bits.
func summaryBits(s obs.Summary) string {
	out := fmt.Sprintf("spans=%d events=%d", s.Spans, s.Events)
	for _, p := range s.Phases {
		out += fmt.Sprintf(" %s:%d:%#x:%#x", p.Phase, p.Spans, math.Float64bits(p.VirtSeconds), math.Float64bits(p.WallSeconds))
	}
	return out
}

// trickyStrings need every escape encoding/json makes: quotes, backslashes,
// HTML's <>&, control bytes, DEL, invalid UTF-8, U+2028/U+2029 and
// multi-byte runes.
var trickyStrings = []string{
	"", "run", "query", "llm.sample", "index.build", "schedule", "q1",
	`say "hi"`, `back\slash`, "<script>&amp;", "a<b", "a>b", "x&y", "tab\there", "nl\nx", "cr\rx",
	"\x00\x01\x1f", "\b\f", "del\x7f", "\xff\xfe", "cut\xc3", "\xe2\x80", "é", "日本",
	"\u2028line\u2029", "emoji 🙂", "a/b", "mixed \"<\xff>\" \u2029",
}

// edgeFloats sit on both sides of encoding/json's 'f'/'e' switch, at the
// ends of the float64 range, and at the signed zeros.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 9.99e-7, 1e-6, 1e-300, 5e-324,
	1e21, -1e21, 9.99e20, 1e20, math.MaxFloat64, -math.MaxFloat64,
	0.1, 1.5, -2.5e-8, 123456789.123, 1e16, 12.000000000000002,
}

type point struct {
	A int    `json:"a"`
	B string `json:"b,omitempty"`
}

// genValue draws an attribute value: the four constructor kinds, edge
// floats, negative ints, and types that take the json.Marshal path.
func genValue(rng *rand.Rand) any {
	switch rng.Intn(14) {
	case 0, 1:
		return trickyStrings[rng.Intn(len(trickyStrings))]
	case 2:
		return []int{0, -1, 7, math.MinInt64, math.MaxInt64, -123456789}[rng.Intn(6)]
	case 3:
		return int(rng.Int63() - rng.Int63())
	case 4:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 5:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
	case 6:
		return rng.Intn(2) == 0
	case 7:
		return nil
	case 8:
		return int64(-rng.Int63())
	case 9:
		return []string{trickyStrings[rng.Intn(len(trickyStrings))], "x"}
	case 10:
		return map[string]any{"k<": 1.5e-9, "a": trickyStrings[rng.Intn(len(trickyStrings))]}
	case 11:
		return float32(rng.NormFloat64() * 1e-7)
	case 12:
		return uint8(rng.Intn(256))
	default:
		return point{A: -rng.Intn(10), B: trickyStrings[rng.Intn(len(trickyStrings))]}
	}
}

// genAttrs draws up to max attributes over a small key set, so keys repeat
// across the inline buffer and the overflow, some of them as annotations.
func genAttrs(rng *rand.Rand, max int) []obs.Attr {
	keys := []string{"a", "b", "k", "query", "Z", "é", "<k>", `q"`, "", " "}
	attrs := make([]obs.Attr, rng.Intn(max+1))
	for i := range attrs {
		attrs[i] = obs.Attr{Key: keys[rng.Intn(len(keys))], Value: genValue(rng)}
		if rng.Intn(3) == 0 {
			attrs[i] = obs.Annot(attrs[i])
		}
	}
	return attrs
}

// genTracer builds a random trace: a forest of spans with tricky names,
// shadowed and overflowing attributes, events with and without attributes,
// open and inverted intervals, and wall clocks that are sometimes unset.
func genTracer(rng *rand.Rand) *obs.Tracer {
	tr := obs.NewTracer()
	var tick int64
	tr.SetWallClock(func() time.Time {
		tick++
		switch tick % 7 {
		case 0:
			return time.Time{}
		case 1:
			return time.Unix(-5, tick)
		}
		return time.Unix(0, tick*1000)
	})
	var spans []*obs.Span
	for n := 1 + rng.Intn(60); len(spans) < n; {
		var parent *obs.Span
		if len(spans) > 0 && rng.Intn(8) != 0 {
			parent = spans[rng.Intn(len(spans))]
		}
		start := edgeFloats[rng.Intn(len(edgeFloats))]
		if rng.Intn(2) == 0 {
			start = rng.Float64() * 100
		}
		s := tr.Start(parent, trickyStrings[rng.Intn(len(trickyStrings))], start, genAttrs(rng, 7)...)
		spans = append(spans, s)
		for i := rng.Intn(3); i > 0; i-- {
			s.SetAttrs(genAttrs(rng, 4)...)
		}
		for i := rng.Intn(4); i > 0; i-- {
			var attrs []obs.Attr
			if rng.Intn(2) == 0 {
				attrs = genAttrs(rng, 4)
			}
			s.Event(trickyStrings[rng.Intn(len(trickyStrings))], start+rng.Float64(), attrs...)
		}
		switch rng.Intn(5) {
		case 0: // left open
		case 1:
			s.End(start - 1 - rng.Float64()) // inverted: the export clamps it
		default:
			s.End(start + rng.Float64()*10)
		}
	}
	return tr
}

// TestWriteJSONLMatchesReference holds the span encoder to the record-form
// encoder: generated traces, edge values, shadowed keys, non-finite values,
// paused partial traces, and (without -short) real tuning runs.
func TestWriteJSONLMatchesReference(t *testing.T) {
	t.Run("generated", func(t *testing.T) {
		for seed := int64(0); seed < 300; seed++ {
			checkExport(t, genTracer(rand.New(rand.NewSource(seed))))
		}
	})

	t.Run("edge-values", func(t *testing.T) {
		tr := obs.NewTracer()
		run := tr.Start(nil, "run", 0)
		for i, f := range edgeFloats {
			s := tr.Start(run, "query", math.Abs(f), obs.Float("f", f), obs.Int("i", -i), obs.Int("min", math.MinInt64))
			s.Event("e", f, obs.Float("f", f))
			s.End(f)
		}
		for _, str := range trickyStrings {
			tr.Start(run, str, 1, obs.String(str, str), obs.Annot(obs.String(str, str))).End(2)
		}
		checkExport(t, tr)
	})

	t.Run("shadowing", func(t *testing.T) {
		tr := obs.NewTracer()
		s := tr.Start(nil, "run", 0, obs.Int("k", 1), obs.String("b", "inline"), obs.Annot(obs.Int("k", 2)), obs.Int("a", 3))
		// Past the inline buffer: the overflow shadows inline keys, and an
		// attribute and an annotation may share a key.
		s.SetAttrs(obs.Int("k", 4), obs.Annot(obs.Bool("b", true)), obs.String("a", "over"), obs.Int("z", 5), obs.Int("z", 6))
		s.SetAttrs(obs.Annot(obs.Int("k", 7)))
		s.Event("ev", 1, obs.Int("x", 1), obs.Int("x", 2), obs.Annot(obs.Int("x", 3)))
		s.Event("bare", 2)
		s.End(3)
		checkExport(t, tr)
	})

	t.Run("non-finite", func(t *testing.T) {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for site := 0; site < 7; site++ {
				tr := obs.NewTracer()
				run := tr.Start(nil, "run", 0, obs.Int("ok", 1))
				tr.Start(run, "before", 0).End(1)
				var s *obs.Span
				switch site {
				case 0:
					s = tr.Start(run, "bad", 0, obs.Float("v", f))
				case 1:
					s = tr.Start(run, "bad", 0, obs.Annot(obs.Float("v", f)))
				case 2:
					s = tr.Start(run, "bad", 0, obs.Int("a", 1), obs.Int("b", 2), obs.Int("c", 3), obs.Int("d", 4), obs.Float("v", f))
				case 3:
					s = tr.Start(run, "bad", 0)
					s.Event("e", 1, obs.Float("v", f))
				case 4:
					s = tr.Start(run, "bad", f)
				case 5:
					s = tr.Start(run, "bad", 0)
					s.End(f)
				case 6:
					s = tr.Start(run, "bad", 0)
					s.Event("e", f)
				}
				tr.Start(s, "after", 2).End(3)
				tr.Start(run, "later", 4).End(5)
				checkExport(t, tr)
				if err := tr.WriteJSONL(&bytes.Buffer{}); err == nil && site != 5 {
					t.Fatalf("%v at site %d encoded without an error", f, site)
				}
			}
		}
		// Values json.Marshal refuses fail on both sides too.
		tr := obs.NewTracer()
		tr.Start(nil, "run", 0, obs.Attr{Key: "ch", Value: make(chan int)})
		checkExport(t, tr)
	})

	t.Run("foreign-parent", func(t *testing.T) {
		other := obs.NewTracer()
		alien := other.Start(nil, "alien", 0)
		tr := obs.NewTracer()
		run := tr.Start(nil, "run", 0)
		orphan := tr.Start(alien, "orphan", 1)
		tr.Start(orphan, "orphan.child", 1).End(2)
		tr.Start(run, "query", 1).End(2)
		tr.Start(nil, "second-root", 3).End(4)
		checkExport(t, tr)
	})

	t.Run("empty", func(t *testing.T) {
		checkExport(t, obs.NewTracer())
	})

	// A running job's trace: export at every progress line of a tuning run,
	// while the run waits on the write (one worker, so nothing else records).
	t.Run("partial", func(t *testing.T) {
		db, w, err := lambdatune.Benchmark("tpch-1", lambdatune.Postgres)
		if err != nil {
			t.Fatal(err)
		}
		trace := lambdatune.NewTrace()
		opts := lambdatune.DefaultOptions()
		opts.Evaluation.Parallelism = 1
		opts.Observability.Trace = trace
		checks := 0
		opts.Observability.Progress = writerFunc(func(p []byte) (int, error) {
			checks++
			checkExport(t, trace.Tracer())
			return len(p), nil
		})
		if _, err := db.Tune(w, lambdatune.NewSimulatedLLM(1), opts); err != nil {
			t.Fatal(err)
		}
		if checks < 5 {
			t.Fatalf("only %d partial exports checked", checks)
		}
		checkExport(t, trace.Tracer())
	})

	// Real tuning runs: four benchmarks on both flavors, six seeds each,
	// under full evaluation, racing and fault injection at parallelism 2.
	t.Run("sweep", func(t *testing.T) {
		if testing.Short() {
			t.Skip("144 tuning runs")
		}
		var runs, spans, size int
		for _, bench := range []string{"tpch-1", "tpch-10", "tpcds-1", "job"} {
			for _, flavor := range []lambdatune.DBMS{lambdatune.Postgres, lambdatune.MySQL} {
				for seed := int64(1); seed <= 6; seed++ {
					for _, mode := range []string{"full", "racing", "faults"} {
						db, w, err := lambdatune.Benchmark(bench, flavor)
						if err != nil {
							t.Fatal(err)
						}
						trace := lambdatune.NewTrace()
						opts := lambdatune.DefaultOptions()
						opts.Seed = seed
						opts.Evaluation.Parallelism = 2
						opts.Observability.Trace = trace
						switch mode {
						case "racing":
							opts.Evaluation.Strategy = lambdatune.Racing
						case "faults":
							opts.Faults = &lambdatune.FaultPlan{LLMRate: 0.3, EngineRate: 0.1}
						}
						// A run the faults end early still leaves a trace to export.
						_, _ = db.Tune(w, lambdatune.NewSimulatedLLM(seed), opts)
						checkExport(t, trace.Tracer())
						var buf bytes.Buffer
						if err := trace.WriteJSONL(&buf); err != nil {
							t.Fatal(err)
						}
						runs++
						spans += trace.Len()
						size += buf.Len()
					}
				}
			}
		}
		t.Logf("%d traces, %d spans, %.1f MB matched the reference", runs, spans, float64(size)/1e6)
	})
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestWriteJSONLChunks: a large trace reaches the writer in a few chunks of
// at least 32 KB (the last may be shorter), and a failing writer's error
// comes back with the lines it accepted counted.
func TestWriteJSONLChunks(t *testing.T) {
	tr := obs.NewTracer()
	run := tr.Start(nil, "run", 0)
	for i := 0; i < 2000; i++ {
		tr.Start(run, "query", float64(i), obs.String("query", fmt.Sprintf("q%d", i)), obs.Float("timeout", 2.5)).End(float64(i) + 1)
	}
	var writes []int
	var all bytes.Buffer
	err := tr.WriteJSONL(writerFunc(func(p []byte) (int, error) {
		writes = append(writes, len(p))
		return all.Write(p)
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range writes[:len(writes)-1] {
		if n < 32<<10 {
			t.Fatalf("write %d of %d carried %d bytes", i+1, len(writes), n)
		}
	}
	if len(writes) > all.Len()/(32<<10)+1 {
		t.Fatalf("%d writes for %d bytes", len(writes), all.Len())
	}

	failAfter := 3
	var got bytes.Buffer
	lines, err := tr.WriteCreationJSONL(writerFunc(func(p []byte) (int, error) {
		if len(p) <= failAfter {
			failAfter -= len(p)
			return got.Write(p)
		}
		n, _ := got.Write(p[:failAfter])
		failAfter = 0
		return n, fmt.Errorf("disk full")
	}), 0)
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("writer error = %v", err)
	}
	if lines != 0 {
		t.Fatalf("reported %d lines written, the writer took 3 bytes", lines)
	}
}

// FuzzTraceExport builds a tracer from the fuzz input — spans, attributes
// of every value kind, events, ends, any bytes as names, keys and strings,
// any bits as floats — and requires the span encoder to write the
// reference's bytes and fail exactly when it fails.
func FuzzTraceExport(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00run\x00\x01\x02a\x03\x07"))
	f.Add([]byte("\x00\x00\x00\x00\x01\x01\x01\x01\x02\x02\x03\x03\x04\x04\x05"))
	f.Add([]byte("\x00\"<>&\\\x00\x01\xff\xfe\x02\xe2\x80\xa8\x03\x7f\xf0\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\xf8\x7f\x02\x00\x00\x00\x00\x00\x00\xf0\x7f"))
	f.Add(bytes.Repeat([]byte("\x00q\x01k\x02k\x03"), 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkExport(t, fuzzTracer(data))
	})
}

// fuzzTracer interprets data as tracer operations. Every read past the end
// yields zeros, so any input builds some trace.
func fuzzTracer(data []byte) *obs.Tracer {
	r := &fuzzReader{data: data}
	tr := obs.NewTracer()
	tr.SetWallClock(func() time.Time {
		if ns := int64(r.u64()); ns != 0 {
			return time.Unix(0, ns)
		}
		return time.Time{}
	})
	var spans []*obs.Span
	pick := func() *obs.Span {
		if len(spans) == 0 {
			return nil
		}
		return spans[int(r.byte())%len(spans)]
	}
	for ops := 0; r.more() && ops < 256; ops++ {
		switch r.byte() % 6 {
		case 0, 1:
			var parent *obs.Span
			if r.byte()%4 != 0 {
				parent = pick()
			}
			spans = append(spans, tr.Start(parent, r.str(), r.float(), r.attrs()...))
		case 2:
			pick().SetAttrs(r.attrs()...)
		case 3:
			pick().Event(r.str(), r.float(), r.attrs()...)
		case 4:
			pick().End(r.float())
		case 5:
			pick().SetAttrs(obs.Annot(r.attr()))
		}
	}
	return tr
}

type fuzzReader struct {
	data []byte
	off  int
}

func (r *fuzzReader) more() bool { return r.off < len(r.data) }

func (r *fuzzReader) byte() byte {
	if r.off >= len(r.data) {
		return 0
	}
	r.off++
	return r.data[r.off-1]
}

func (r *fuzzReader) u64() uint64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(r.byte()) << (8 * i)
	}
	return u
}

// float is mostly small and exact, sometimes any 64 bits (NaN and ±Inf
// included).
func (r *fuzzReader) float() float64 {
	if b := r.byte(); b < 0xf0 {
		return float64(b) / 4
	}
	return math.Float64frombits(r.u64())
}

// str takes a length byte (mod 16) and that many raw bytes.
func (r *fuzzReader) str() string {
	n := int(r.byte() % 16)
	var b []byte
	for i := 0; i < n && r.more(); i++ {
		b = append(b, r.byte())
	}
	return string(b)
}

func (r *fuzzReader) attr() obs.Attr {
	key := r.str()
	var v any
	switch r.byte() % 8 {
	case 0:
		v = r.str()
	case 1:
		v = int(int64(r.u64()))
	case 2:
		v = math.Float64frombits(r.u64())
	case 3:
		v = r.float()
	case 4:
		v = r.byte()%2 == 0
	case 5:
		v = nil
	case 6:
		v = []string{r.str()}
	case 7:
		v = json.Number(r.str())
	}
	return obs.Attr{Key: key, Value: v, Annot: r.byte()%3 == 0}
}

func (r *fuzzReader) attrs() []obs.Attr {
	attrs := make([]obs.Attr, r.byte()%9)
	for i := range attrs {
		attrs[i] = r.attr()
	}
	return attrs
}
