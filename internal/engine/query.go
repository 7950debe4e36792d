package engine

import (
	"fmt"
	"sort"
	"strings"

	"lambdatune/internal/sqlparser"
)

// Query is a prepared workload query: SQL text plus its parsed and analyzed
// form. Preparing once amortizes parsing across the many evaluations a
// tuning run performs.
type Query struct {
	Name     string
	SQL      string
	Stmt     *sqlparser.SelectStmt
	Analysis sqlparser.Analysis
	// probes is the precomputed set of (table, leading-column) groups the
	// planner may look up indexes under for this query — the plan-cache
	// signature domain (see plancache.go). Computed once at preparation so
	// concurrent planning on snapshot replicas needs no synchronization.
	probes []string
}

// PrepareQuery parses and analyzes one query.
func PrepareQuery(name, sql string) (*Query, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("engine: query %s: %w", name, err)
	}
	a := sqlparser.Analyze(stmt)
	return &Query{Name: name, SQL: sql, Stmt: stmt, Analysis: a, probes: computeProbes(a)}, nil
}

// WithAnalysis returns a copy of q carrying analysis a, with the index-probe
// groups derived again from a, so the copy's plan-cache signature follows
// the tables and columns a names rather than q's.
func (q *Query) WithAnalysis(a sqlparser.Analysis) *Query {
	nq := *q
	nq.Analysis, nq.probes = a, computeProbes(a)
	return &nq
}

// computeProbes derives the index-probe groups of an analyzed query: the
// planner consults the index set only through hasIndexOnColumn and
// indexPrefixMatch, and every such call uses either a non-LIKE constant
// filter's (table, column) or a join condition side's (table, column). An
// index outside these groups — wrong table, or a leading key column the
// query never probes — cannot influence the query's plan.
func computeProbes(a sqlparser.Analysis) []string {
	seen := map[string]bool{}
	add := func(table, column string) {
		k := strings.ToLower(table) + "\x00" + strings.ToLower(column)
		seen[k] = true
	}
	for _, f := range a.Filters {
		if f.Kind != sqlparser.FilterLike {
			add(f.Table, f.Column)
		}
	}
	for _, j := range a.Joins {
		add(j.LeftTable, j.LeftColumn)
		add(j.RightTable, j.RightColumn)
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MustPrepareQuery is PrepareQuery that panics on error; for fixed benchmark
// query sets covered by tests.
func MustPrepareQuery(name, sql string) *Query {
	q, err := PrepareQuery(name, sql)
	if err != nil {
		panic(err)
	}
	return q
}

// ExecResult reports one query execution.
type ExecResult struct {
	// Seconds is the simulated time consumed (equals the timeout when the
	// query was interrupted).
	Seconds float64
	// Complete is false when the query hit the timeout or aborted.
	Complete bool
	// Aborted is true when an injected engine fault killed the query
	// mid-flight (as opposed to a timeout interruption): the time in
	// Seconds was wasted, and an immediate re-execution may succeed.
	Aborted bool
}
