package faults

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// fakeClock is a settable virtual-time source.
type fakeClock struct{ now float64 }

func (c *fakeClock) Now() float64 { return c.now }

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := NewInjector(Plan{}, 1, nil)
	for i := 0; i < 100; i++ {
		if err := in.BeforeComplete("p"); err != nil {
			t.Fatalf("call %d: unexpected fault %v", i, err)
		}
		out, err := in.AfterComplete("ALTER SYSTEM SET work_mem = '64MB';")
		if err != nil || out != "ALTER SYSTEM SET work_mem = '64MB';" {
			t.Fatalf("call %d: response altered: %q %v", i, out, err)
		}
		if _, abort := in.EngineFault(QueryAbort, "c", "q", i); abort {
			t.Fatalf("call %d: unexpected query abort", i)
		}
		if _, fail := in.EngineFault(IndexFail, "c", "t(c)", i); fail {
			t.Fatalf("call %d: unexpected index failure", i)
		}
	}
	if in.Total() != 0 {
		t.Fatalf("Total() = %d, want 0", in.Total())
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() (string, []bool) {
		in := NewInjector(NewPlan(0.5, 0.5), 42, nil)
		var aborts []bool
		for i := 0; i < 50; i++ {
			_ = in.BeforeComplete("p")
			_, _ = in.AfterComplete("line1\nline2\nline3\n")
			_, a := in.EngineFault(QueryAbort, "c", "q", i)
			aborts = append(aborts, a)
		}
		return in.Summary(), aborts
	}
	s1, a1 := run()
	s2, a2 := run()
	if s1 != s2 {
		t.Fatalf("summaries differ:\n%s\n%s", s1, s2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("abort decision %d differs", i)
		}
	}
}

func TestLLMStreamIndependentOfEngineDecisions(t *testing.T) {
	// The LLM fault sequence must not shift when the number of interleaved
	// engine fault decisions changes (queries executed varies run to run).
	seq := func(engineDecisions int) []error {
		in := NewInjector(NewPlan(0.8, 0.5), 7, nil)
		var errs []error
		for i := 0; i < 20; i++ {
			errs = append(errs, in.BeforeComplete("p"))
			for j := 0; j < engineDecisions; j++ {
				in.EngineFault(QueryAbort, "c", "q", j)
			}
		}
		return errs
	}
	a, b := seq(0), seq(13)
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("LLM fault decision %d depends on the engine decision count", i)
		}
	}
}

func TestRateLimitWindow(t *testing.T) {
	clock := &fakeClock{}
	in := NewInjector(Plan{RateLimitRate: 1, RateLimitWindowSeconds: 20}, 1, clock)
	err := in.BeforeComplete("p")
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != LLMRateLimit {
		t.Fatalf("want rate-limit error, got %v", err)
	}
	// Inside the window every call fails, whatever the rates say.
	clock.now = 10
	if err := in.BeforeComplete("p"); err == nil {
		t.Fatal("call inside the burst window should fail")
	}
	// After the window the gate is drawn again (rate 1 → fails again, but
	// with a *new* window start).
	clock.now = 25
	err = in.BeforeComplete("p")
	if !errors.As(err, &fe) || fe.Kind != LLMRateLimit {
		t.Fatalf("want new rate-limit burst, got %v", err)
	}
	if got := in.Counts()[LLMRateLimit]; got != 3 {
		t.Fatalf("rate-limit count = %d, want 3", got)
	}
}

func TestRateLimitWindowExpires(t *testing.T) {
	clock := &fakeClock{}
	in := NewInjector(Plan{RateLimitRate: 0.999}, 99, clock)
	if err := in.BeforeComplete("p"); err == nil {
		t.Fatal("first call should open a burst")
	}
	clock.now = 1000 // far past the window
	in.plan.RateLimitRate = 0
	if err := in.BeforeComplete("p"); err != nil {
		t.Fatalf("window should have expired: %v", err)
	}
}

func TestTransientErrorCarriesLatency(t *testing.T) {
	in := NewInjector(Plan{TransientRate: 1, FailedCallSeconds: 2}, 1, nil)
	err := in.BeforeComplete("p")
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("want *Error, got %v", err)
	}
	if fe.Kind != LLMTransient || fe.LatencySeconds() != 2 || !fe.Retryable() {
		t.Fatalf("unexpected error shape: %+v", fe)
	}
}

func TestTruncationShortensResponse(t *testing.T) {
	in := NewInjector(Plan{TruncateRate: 1}, 1, nil)
	full := strings.Repeat("ALTER SYSTEM SET work_mem = '64MB';\n", 10)
	out, err := in.AfterComplete(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) >= len(full) || len(out) == 0 {
		t.Fatalf("truncated length %d not in (0, %d)", len(out), len(full))
	}
	if got := in.Counts()[LLMTruncated]; got != 1 {
		t.Fatalf("truncate count = %d, want 1", got)
	}
}

func TestMalformInsertsChatter(t *testing.T) {
	in := NewInjector(Plan{MalformRate: 1}, 1, nil)
	out, err := in.AfterComplete("ALTER SYSTEM SET work_mem = '64MB';")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "As an AI language model") {
		t.Fatalf("chatter missing from %q", out)
	}
	if !strings.Contains(out, "work_mem") {
		t.Fatalf("original content lost: %q", out)
	}
}

func TestEngineFaultFractions(t *testing.T) {
	in := NewInjector(Plan{QueryAbortRate: 1, IndexFailRate: 1}, 1, nil)
	for i := 0; i < 20; i++ {
		frac, abort := in.EngineFault(QueryAbort, "c", "q", i)
		if !abort || frac < 0 || frac >= 1 {
			t.Fatalf("query abort = (%v, %v)", frac, abort)
		}
		frac, fail := in.EngineFault(IndexFail, "c", "t(c)", i)
		if !fail || frac < 0 || frac >= 1 {
			t.Fatalf("index failure = (%v, %v)", frac, fail)
		}
	}
	// Engine decisions are pure: they count nothing in the injector.
	if in.Total() != 0 {
		t.Fatalf("engine decisions counted: %v", in.Counts())
	}
}

// TestEngineFaultIsKeyed: an engine fault decision is a function of its key
// alone — no call order, interleaving or repetition changes it — and over
// many distinct keys it hits at the plan's rate.
func TestEngineFaultIsKeyed(t *testing.T) {
	type key struct {
		kind              Kind
		candidate, target string
		n                 int
	}
	var keys []key
	for i := 0; i < 20000; i++ {
		kind := QueryAbort
		if i%2 == 1 {
			kind = IndexFail
		}
		keys = append(keys, key{kind, fmt.Sprintf("llm-%d", i%7), fmt.Sprintf("q%d", i/7), i % 3})
	}
	in := NewInjector(NewPlan(0, 0.1), 5, nil) // 0.05 per kind
	type decision struct {
		frac float64
		hit  bool
	}
	forward := make([]decision, len(keys))
	hits := 0
	for i, k := range keys {
		frac, hit := in.EngineFault(k.kind, k.candidate, k.target, k.n)
		forward[i] = decision{frac, hit}
		if hit {
			hits++
		}
	}
	if rate := float64(hits) / float64(len(keys)); rate < 0.045 || rate > 0.055 {
		t.Errorf("hit rate %.4f over %d keys, want 0.05 ± 0.005", rate, len(keys))
	}
	// Reverse order on a fresh injector, with LLM draws interleaved: the
	// same decisions.
	again := NewInjector(NewPlan(0.5, 0.1), 5, nil)
	for i := len(keys) - 1; i >= 0; i-- {
		_ = again.BeforeComplete("p")
		k := keys[i]
		frac, hit := again.EngineFault(k.kind, k.candidate, k.target, k.n)
		if (decision{frac, hit}) != forward[i] {
			t.Fatalf("key %+v: (%v, %v) in reverse order, (%v, %v) forward",
				k, frac, hit, forward[i].frac, forward[i].hit)
		}
	}
	// Every part of the key matters.
	base := key{QueryAbort, "llm-1", "q1", 0}
	differs := func(k key) bool {
		in := NewInjector(Plan{QueryAbortRate: 1, IndexFailRate: 1}, 5, nil)
		f0, _ := in.EngineFault(base.kind, base.candidate, base.target, base.n)
		f1, _ := in.EngineFault(k.kind, k.candidate, k.target, k.n)
		return f0 != f1
	}
	for _, k := range []key{{IndexFail, "llm-1", "q1", 0}, {QueryAbort, "llm-2", "q1", 0},
		{QueryAbort, "llm-1", "q2", 0}, {QueryAbort, "llm-1", "q1", 1}, {QueryAbort, "llm-1q", "1", 0}} {
		if !differs(k) {
			t.Errorf("key %+v decides like %+v", k, base)
		}
	}
	f5, _ := NewInjector(Plan{QueryAbortRate: 1}, 5, nil).EngineFault(QueryAbort, "llm-1", "q1", 0)
	f6, _ := NewInjector(Plan{QueryAbortRate: 1}, 6, nil).EngineFault(QueryAbort, "llm-1", "q1", 0)
	if f5 == f6 {
		t.Error("the seed does not change the decision")
	}
}

func TestSummaryFormat(t *testing.T) {
	in := NewInjector(Plan{TransientRate: 1}, 1, nil)
	_ = in.BeforeComplete("p")
	_ = in.BeforeComplete("p")
	if got := in.Summary(); got != "llm-transient=2" {
		t.Fatalf("Summary() = %q", got)
	}
	if in.Total() != 2 {
		t.Fatalf("Total() = %d", in.Total())
	}
}

func TestNewPlanSplit(t *testing.T) {
	p := NewPlan(0.5, 0.2)
	sumLLM := p.TransientRate + p.RateLimitRate + p.TruncateRate + p.MalformRate
	if diff := sumLLM - 0.5; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("LLM rates sum to %v, want 0.5", sumLLM)
	}
	sumEng := p.QueryAbortRate + p.IndexFailRate
	if diff := sumEng - 0.2; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("engine rates sum to %v, want 0.2", sumEng)
	}
	if p.RateLimitWindowSeconds <= 0 || p.FailedCallSeconds <= 0 {
		t.Fatalf("defaults missing: %+v", p)
	}
}
