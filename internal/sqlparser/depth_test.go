package sqlparser

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// nestings builds, for each construct that deepens the AST, a statement
// nesting it k times.
var nestings = []struct {
	name  string
	build func(k int) string
}{
	{"parentheses", func(k int) string {
		return "SELECT " + strings.Repeat("(", k) + "1" + strings.Repeat(")", k) + " FROM t"
	}},
	{"derived tables", func(k int) string {
		return "SELECT a FROM " + strings.Repeat("(SELECT a FROM ", k) + "t" + strings.Repeat(") s", k)
	}},
	{"scalar subqueries", func(k int) string {
		return strings.Repeat("SELECT (", k) + "SELECT 1 FROM t" + strings.Repeat(") FROM t", k)
	}},
	{"function calls", func(k int) string {
		return "SELECT " + strings.Repeat("f(", k) + "1" + strings.Repeat(")", k) + " FROM t"
	}},
	{"IN lists", func(k int) string {
		return "SELECT a FROM t WHERE " + strings.Repeat("a IN (", k) + "1" + strings.Repeat(")", k)
	}},
	{"CASE arms", func(k int) string {
		return "SELECT " + strings.Repeat("CASE WHEN ", k) + "1" + strings.Repeat(" THEN 1 END", k) + " FROM t"
	}},
	{"NOT chain", func(k int) string {
		return "SELECT a FROM t WHERE " + strings.Repeat("NOT ", k) + "b"
	}},
	{"unary minus chain", func(k int) string {
		return "SELECT " + strings.Repeat("- ", k) + "1 FROM t"
	}},
	{"operator chain", func(k int) string {
		return "SELECT 1" + strings.Repeat(" + 1", k) + " FROM t"
	}},
	{"AND chain", func(k int) string {
		return "SELECT a FROM t WHERE b" + strings.Repeat(" AND b", k)
	}},
	{"predicate chain", func(k int) string {
		return "SELECT a FROM t WHERE b" + strings.Repeat(" IS NULL", k)
	}},
}

// TestParseDepthLimit: every construct that deepens the AST parses 100
// levels deep and fails with an error naming the limit one level past it.
// Without the bound, such statements recurse once per level in the parser
// or in Analyze, and a deep enough one overflows the goroutine stack, which
// is fatal.
func TestParseDepthLimit(t *testing.T) {
	limit := strconv.Itoa(maxDepth)
	for _, n := range nestings {
		if _, err := Parse(n.build(100)); err != nil {
			t.Errorf("%s, 100 levels: %v", n.name, err)
		}
		_, err := Parse(n.build(maxDepth + 1))
		if err == nil || !strings.Contains(err.Error(), limit) {
			t.Errorf("%s, %d levels: err = %v, want one naming the limit %s", n.name, maxDepth+1, err, limit)
		}
	}
}

// TestParseDepthLimitBoundary pins how levels count: the statement and its
// select item take one level each, so the deepest parenthesised select item
// that parses holds maxDepth-2 parentheses.
func TestParseDepthLimitBoundary(t *testing.T) {
	build := nestings[0].build
	if _, err := Parse(build(maxDepth - 2)); err != nil {
		t.Errorf("%d parentheses: %v", maxDepth-2, err)
	}
	if _, err := Parse(build(maxDepth - 1)); err == nil {
		t.Errorf("%d parentheses parsed, want a depth error", maxDepth-1)
	}
}

// TestParseDepthLimitHugeInput: three million nested parentheses, once a
// fatal stack overflow, are a parse error within a second. The parser
// recurses at each opening parenthesis, so the closing ones are left out to
// halve the token buffer.
func TestParseDepthLimitHugeInput(t *testing.T) {
	if testing.Short() {
		t.Skip("lexes 3 MB into about 100 MB of tokens")
	}
	sql := "SELECT " + strings.Repeat("(", 3_000_000)
	start := time.Now()
	_, err := Parse(sql)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxDepth)) {
		t.Fatalf("err = %v, want a depth error", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("took %v, want under a second", d)
	}
}
