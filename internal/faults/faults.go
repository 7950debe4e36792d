// Package faults implements deterministic fault injection for the tuning
// pipeline's substrate boundaries. Real λ-Tune deployments talk to a hosted
// LLM and a live DBMS, both of which fail routinely — transient API errors,
// rate-limit bursts, truncated or garbage completions, killed queries,
// failed index builds. The Injector reproduces that failure surface on the
// simulated substrate: it is seeded (two runs with the same seed inject the
// byte-identical faults) and virtual-clock-aware (rate-limit bursts span a
// window of simulated time, so waiting them out costs tuning time).
//
// LLM faults come from one seeded stream through llm.CompleteInterceptor
// (installed with llm.WithInterceptor or SimClient.Intercept): sampling runs
// once, before selection, and a resumed run skips it. Engine faults are
// hashed from what they hit, as in the counter-based generators of Salmon et
// al. ("Parallel random numbers: as easy as 1, 2, 3", SC '11): the
// evaluator asks EngineFault before every query execution and index build,
// and the answer is the same on any replica and after any resume.
package faults

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"lambdatune/internal/obs"
)

// Kind identifies one fault class of the taxonomy.
type Kind int

// The fault taxonomy. LLM faults model the hosted-API failure modes the
// paper's §4 retry loop exists for; engine faults model a production DBMS
// under pressure (statement_timeout kills, failed index builds).
const (
	// LLMTransient is a transient API error (HTTP 5xx): the call fails,
	// an immediate retry may succeed.
	LLMTransient Kind = iota
	// LLMRateLimit is a 429 burst: the call fails and every further call
	// fails until a window of virtual time has passed.
	LLMRateLimit
	// LLMTruncated cuts the completion off mid-script (max-token cutoffs,
	// dropped connections). The call "succeeds" with a damaged payload.
	LLMTruncated
	// LLMMalformed corrupts the completion with non-SQL chatter.
	LLMMalformed
	// QueryAbort kills a query mid-flight after part of its runtime was
	// already spent (engine crash, admission-control kill).
	QueryAbort
	// IndexFail aborts an index build partway; the index does not exist
	// afterwards but the partial build time is lost.
	IndexFail
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case LLMTransient:
		return "llm-transient"
	case LLMRateLimit:
		return "llm-rate-limit"
	case LLMTruncated:
		return "llm-truncated"
	case LLMMalformed:
		return "llm-malformed"
	case QueryAbort:
		return "query-abort"
	case IndexFail:
		return "index-fail"
	}
	return "unknown"
}

// Error is an injected LLM-boundary failure. It carries the virtual latency
// the failed call consumed, so a resilience layer can charge the clock
// honestly.
type Error struct {
	Kind    Kind
	Latency float64
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("injected fault: %s", e.Kind)
}

// Retryable reports whether an immediate retry can help. All injected LLM
// faults are transient by construction.
func (e *Error) Retryable() bool { return true }

// LatencySeconds returns the virtual seconds the failed call consumed.
func (e *Error) LatencySeconds() float64 { return e.Latency }

// Clock is the read-only virtual-time source the injector observes.
// *engine.Clock satisfies it.
type Clock interface {
	Now() float64
}

// Plan configures per-kind fault rates (probabilities in [0,1], evaluated
// independently per call site).
type Plan struct {
	// TransientRate is the per-call probability of an LLMTransient error.
	TransientRate float64
	// RateLimitRate is the per-call probability of opening a rate-limit
	// burst window.
	RateLimitRate float64
	// TruncateRate is the per-call probability of truncating the response.
	TruncateRate float64
	// MalformRate is the per-call probability of corrupting the response.
	MalformRate float64
	// QueryAbortRate is the per-execution probability of a query abort.
	QueryAbortRate float64
	// IndexFailRate is the per-build probability of an index-build failure.
	IndexFailRate float64
	// RateLimitWindowSeconds is the virtual duration of a rate-limit burst
	// (default 20).
	RateLimitWindowSeconds float64
	// FailedCallSeconds is the virtual latency a failed LLM call consumes
	// (default 2).
	FailedCallSeconds float64
}

// NewPlan spreads an aggregate LLM fault rate across the LLM fault kinds
// (40% transient errors, 20% rate limits, 20% truncations, 20% garbage) and
// an aggregate engine fault rate across query aborts and index failures
// (split evenly), with default window and latency settings.
func NewPlan(llmRate, engineRate float64) Plan {
	return Plan{
		TransientRate:          0.4 * llmRate,
		RateLimitRate:          0.2 * llmRate,
		TruncateRate:           0.2 * llmRate,
		MalformRate:            0.2 * llmRate,
		QueryAbortRate:         0.5 * engineRate,
		IndexFailRate:          0.5 * engineRate,
		RateLimitWindowSeconds: 20,
		FailedCallSeconds:      2,
	}
}

// Injector produces the plan's faults: LLM faults from a seeded stream (it
// implements llm.CompleteInterceptor), engine faults by key (EngineFault),
// so no number of engine decisions shifts an LLM fault.
type Injector struct {
	plan   Plan
	seed   int64
	llmRng *rand.Rand
	clock  Clock
	// rateLimitedUntil is the virtual end of the current 429 burst.
	rateLimitedUntil float64
	// counts holds the LLM faults injected so far (the evaluator counts
	// engine faults in each candidate's ConfigMeta).
	counts map[Kind]int
	// tracer, when set, turns every LLM fault into a fault.<kind> trace
	// event on the run's root span (sampling is sequential, so the event
	// order is deterministic).
	tracer *obs.Tracer
}

// SetTracer makes every future LLM fault emit a virtual-clock-stamped
// fault.<kind> event on tr's root span. A nil tracer disables emission.
func (in *Injector) SetTracer(tr *obs.Tracer) { in.tracer = tr }

// NewInjector creates an injector. clock may be nil when no component
// advances virtual time (rate-limit windows then never expire on their own).
func NewInjector(plan Plan, seed int64, clock Clock) *Injector {
	if plan.RateLimitWindowSeconds <= 0 {
		plan.RateLimitWindowSeconds = 20
	}
	if plan.FailedCallSeconds <= 0 {
		plan.FailedCallSeconds = 2
	}
	return &Injector{
		plan:   plan,
		seed:   seed,
		llmRng: rand.New(rand.NewSource(seed)),
		clock:  clock,
		counts: map[Kind]int{},
	}
}

// EnginePlan returns what decides the engine faults: the seed and the
// query-abort and index-failure rates. A nil injector returns zeros.
func (in *Injector) EnginePlan() (seed int64, queryAbortRate, indexFailRate float64) {
	if in == nil {
		return 0, 0, 0
	}
	return in.seed, in.plan.QueryAbortRate, in.plan.IndexFailRate
}

// EngineFault decides whether the operation keyed by (kind, candidate,
// target, n) fails, and after what fraction of its cost: kind is QueryAbort
// (target a query name) or IndexFail (target an index key), and n the
// candidate's count of kind-faults so far, so a retry is a fresh decision.
// It is a pure function of the key, the seed and the plan, safe for
// concurrent use. A nil injector never fails anything.
func (in *Injector) EngineFault(kind Kind, candidate, target string, n int) (wastedFrac float64, fail bool) {
	if in == nil {
		return 0, false
	}
	rate := in.plan.QueryAbortRate
	if kind == IndexFail {
		rate = in.plan.IndexFailRate
	}
	if rate <= 0 {
		return 0, false
	}
	// FNV-1a over the key seeds a splitmix64 state; its first output
	// decides the fault, the second is the wasted fraction.
	key := append(binary.LittleEndian.AppendUint64(nil, uint64(in.seed)), byte(kind))
	key = append(append(key, candidate...), 0)
	key = append(append(key, target...), 0)
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(key, uint64(n)))
	s := h.Sum64() + golden
	if unit(s) >= rate {
		return 0, false
	}
	return unit(s + golden), true
}

// golden is splitmix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// unit is splitmix64's output function on state z, scaled into [0, 1).
func unit(z uint64) float64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

func (in *Injector) now() float64 {
	if in.clock == nil {
		return 0
	}
	return in.clock.Now()
}

func (in *Injector) hit(rng *rand.Rand, rate float64) bool {
	return rate > 0 && rng.Float64() < rate
}

func (in *Injector) record(k Kind) {
	in.counts[k]++
	in.tracer.Root().Event("fault."+k.String(), in.now())
}

// Counts returns the number of injected LLM faults per kind.
func (in *Injector) Counts() map[Kind]int {
	out := make(map[Kind]int, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Total returns the total number of injected LLM faults.
func (in *Injector) Total() int {
	n := 0
	for _, v := range in.counts {
		n += v
	}
	return n
}

// Summary renders the per-kind counts as "kind=n" pairs in kind order.
func (in *Injector) Summary() string {
	kinds := make([]Kind, 0, len(in.counts))
	for k := range in.counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(a, b int) bool { return kinds[a] < kinds[b] })
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, in.counts[k])
	}
	return strings.Join(parts, " ")
}

// BeforeComplete implements llm.CompleteInterceptor: it fails the call with
// a transient or rate-limit error according to the plan.
func (in *Injector) BeforeComplete(prompt string) error {
	_ = prompt
	now := in.now()
	if now < in.rateLimitedUntil {
		in.record(LLMRateLimit)
		return &Error{Kind: LLMRateLimit, Latency: in.plan.FailedCallSeconds}
	}
	// Draw both gates unconditionally so the consumed rng stream — and with
	// it every later fault decision — does not depend on virtual time.
	limit := in.hit(in.llmRng, in.plan.RateLimitRate)
	transient := in.hit(in.llmRng, in.plan.TransientRate)
	if limit {
		in.rateLimitedUntil = now + in.plan.RateLimitWindowSeconds
		in.record(LLMRateLimit)
		return &Error{Kind: LLMRateLimit, Latency: in.plan.FailedCallSeconds}
	}
	if transient {
		in.record(LLMTransient)
		return &Error{Kind: LLMTransient, Latency: in.plan.FailedCallSeconds}
	}
	return nil
}

// AfterComplete implements llm.CompleteInterceptor: it damages successful
// responses (truncation, garbage insertion) according to the plan.
func (in *Injector) AfterComplete(response string) (string, error) {
	truncate := in.hit(in.llmRng, in.plan.TruncateRate)
	malform := in.hit(in.llmRng, in.plan.MalformRate)
	if truncate && len(response) > 1 {
		in.record(LLMTruncated)
		// Cut somewhere in the middle 30–80% — usually mid-line, the way a
		// max-token cutoff lands.
		cut := int(float64(len(response)) * (0.3 + 0.5*in.llmRng.Float64()))
		if cut < 1 {
			cut = 1
		}
		response = response[:cut]
	}
	if malform {
		in.record(LLMMalformed)
		lines := strings.Split(response, "\n")
		at := 0
		if len(lines) > 1 {
			at = in.llmRng.Intn(len(lines))
		}
		chatter := "As an AI language model, I recommend reviewing these settings carefully"
		lines = append(lines[:at], append([]string{chatter}, lines[at:]...)...)
		response = strings.Join(lines, "\n")
	}
	return response, nil
}
