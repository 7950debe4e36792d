// Package llm provides the language-model client that λ-Tune samples
// configurations from, plus an approximate tokenizer for prompt budgeting.
//
// The paper uses OpenAI's GPT-4; offline, we substitute a deterministic
// knowledge-model simulator (see DESIGN.md §2). The simulator reads the same
// prompt text the paper's system would send and applies the documented DBA
// heuristics — 25% of RAM to shared_buffers, index the join columns the
// prompt mentions, lower random_page_cost alongside index recommendations —
// with temperature-controlled randomization that occasionally yields the bad
// configurations the paper's configuration selector exists to defend against
// (§6.3 reports outliers up to 5× the optimum among 15 samples).
package llm

import (
	"context"
	"strings"
	"unicode"
)

// CountTokens approximates a BPE tokenizer's token count: each word costs
// roughly one token per four characters, and every punctuation rune costs
// one token. The approximation is deliberately deterministic so prompt
// budgeting is reproducible.
func CountTokens(text string) int {
	tokens := 0
	wordLen := 0
	flush := func() {
		if wordLen > 0 {
			tokens += (wordLen + 3) / 4
			wordLen = 0
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsSpace(r):
			flush()
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			wordLen++
		default:
			flush()
			tokens++
		}
	}
	flush()
	return tokens
}

// Client is the language-model interface λ-Tune invokes. Complete returns
// one full configuration script for the given prompt. The context carries
// cancellation and per-call deadlines down to the model transport.
type Client interface {
	// Complete returns the model's response to the prompt.
	Complete(ctx context.Context, prompt string) (string, error)
	// Name identifies the model (for logs and experiment records).
	Name() string
}

// DefaultTemperature is the sampling temperature the paper's setup uses
// (§6.1) and what Complete assumes for clients whose sampling is
// temperature-controlled.
const DefaultTemperature = 0.7

// TemperatureCompleter is optionally implemented by clients whose sampling
// supports per-call temperature control (the bundled simulator does; wrapper
// clients forward it). Clients without the method simply use whatever
// sampling parameters they were built with.
type TemperatureCompleter interface {
	CompleteT(ctx context.Context, prompt string, temperature float64) (string, error)
}

// Complete invokes c with the given per-call temperature when the client
// supports it, and plain Complete otherwise. The pipeline routes every model
// call through this helper so Options.Temperature reaches capable clients
// without widening the minimal Client interface.
func Complete(ctx context.Context, c Client, prompt string, temperature float64) (string, error) {
	if tc, ok := c.(TemperatureCompleter); ok {
		return tc.CompleteT(ctx, prompt, temperature)
	}
	return c.Complete(ctx, prompt)
}

// trimIndent normalizes a prompt line for parsing.
func trimIndent(s string) string { return strings.TrimSpace(s) }
