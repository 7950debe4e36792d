package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"lambdatune/internal/sqlparser"
)

// Query is a prepared workload query: SQL text plus its parsed and analyzed
// form. Preparing once amortizes parsing across the many evaluations a
// tuning run performs, and the first planning against a catalog adds the
// query's shape, the half of its plan no setting or index affects, so later
// cold plans only choose operators. A Query is never mutated after
// preparation apart from publishing its shape, and may be planned from
// several goroutines at once.
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
	// shape is the query's plan shape for the catalog it names (see
	// queryShape): built by the first planning, read-only once published,
	// and replaced when the query is planned against another catalog.
	shape atomic.Pointer[queryShape]
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
// the tables and columns a names rather than q's. The copy starts without a
// shape: q's describes q's analysis.
func (q *Query) WithAnalysis(a sqlparser.Analysis) *Query {
	return &Query{Name: q.Name, SQL: q.SQL, Stmt: q.Stmt, Analysis: a, probes: computeProbes(a)}
}

// computeProbes derives the index-probe groups of an analyzed query: the
// planner consults the index set only through hasIndexOnColumn and
// indexPrefixMatch, and every such call uses either a non-LIKE constant
// filter's (table, column) or a join condition side's (table, column). An
// index outside these groups — wrong table, or a leading key column the
// query never probes — cannot influence the query's plan.
func computeProbes(a sqlparser.Analysis) []string {
	out := make([]string, 0, len(a.Filters)+2*len(a.Joins))
	for _, f := range a.Filters {
		if f.Kind != sqlparser.FilterLike {
			out = append(out, probeGroup(f.Table, f.Column))
		}
	}
	for _, j := range a.Joins {
		out = append(out, probeGroup(j.LeftTable, j.LeftColumn), probeGroup(j.RightTable, j.RightColumn))
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// probeGroup names the probe group of (table, column): both lower-cased and
// joined by NUL, the key format of indexGroup.
func probeGroup(table, column string) string {
	return strings.ToLower(table) + "\x00" + strings.ToLower(column)
}

// groupIn returns probeGroup(table, column), taken from probes when it is
// there, as it is for every group the planner probes: the key is assembled
// in a stack buffer, so a shape's group keys share the query's strings and
// the lookup allocates nothing.
func groupIn(probes []string, table, column string) string {
	var buf [64]byte
	g := append(append(append(buf[:0], strings.ToLower(table)...), 0), strings.ToLower(column)...)
	for _, p := range probes {
		if p == string(g) {
			return p
		}
	}
	return string(g)
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
