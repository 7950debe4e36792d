package sqlparser

import (
	"reflect"
	"testing"
)

func analyze(t *testing.T, q string) Analysis {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return Analyze(stmt)
}

func TestAnalyzeTables(t *testing.T) {
	a := analyze(t, "SELECT * FROM Orders o, LineItem l WHERE o.id = l.oid")
	want := []string{"lineitem", "orders"}
	if !reflect.DeepEqual(a.Tables, want) {
		t.Errorf("tables: got %v, want %v", a.Tables, want)
	}
}

func TestAnalyzeImplicitJoin(t *testing.T) {
	a := analyze(t, "SELECT * FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey")
	if len(a.Joins) != 1 {
		t.Fatalf("joins: %v", a.Joins)
	}
	j := a.Joins[0]
	if j.String() != "lineitem.l_orderkey = orders.o_orderkey" {
		t.Errorf("join: %s", j)
	}
}

func TestAnalyzeExplicitJoin(t *testing.T) {
	a := analyze(t, "SELECT * FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey")
	if len(a.Joins) != 1 {
		t.Fatalf("joins: %v", a.Joins)
	}
}

func TestAnalyzeJoinCanonicalization(t *testing.T) {
	a1 := analyze(t, "SELECT * FROM a, b WHERE a.x = b.y")
	a2 := analyze(t, "SELECT * FROM a, b WHERE b.y = a.x")
	if !reflect.DeepEqual(a1.Joins, a2.Joins) {
		t.Errorf("canonicalization failed: %v vs %v", a1.Joins, a2.Joins)
	}
}

func TestAnalyzeJoinDedup(t *testing.T) {
	a := analyze(t, "SELECT * FROM a, b WHERE a.x = b.y AND b.y = a.x")
	if len(a.Joins) != 1 {
		t.Errorf("expected 1 join after dedup, got %v", a.Joins)
	}
}

func TestAnalyzeFilterColumns(t *testing.T) {
	a := analyze(t, `SELECT * FROM orders o WHERE o.o_orderdate >= DATE '1994-01-01'
		AND o.o_totalprice BETWEEN 100 AND 200 AND o.o_orderstatus IN ('F', 'O')`)
	want := map[ColumnUse]FilterKind{
		{"orders", "o_orderdate"}:   FilterRange,
		{"orders", "o_totalprice"}:  FilterRange,
		{"orders", "o_orderstatus"}: FilterIn,
	}
	if len(a.Filters) != len(want) {
		t.Fatalf("filters: %v", a.Filters)
	}
	for _, f := range a.Filters {
		kind, ok := want[f.ColumnUse]
		if !ok {
			t.Errorf("unexpected filter %v", f)
		} else if f.Kind != kind {
			t.Errorf("filter %v: kind %v, want %v", f.ColumnUse, f.Kind, kind)
		}
	}
}

func TestAnalyzeSelfJoinNotAJoinCondition(t *testing.T) {
	// Same base table on both sides via aliases is a join; same alias on
	// both sides is not.
	a := analyze(t, "SELECT * FROM t a WHERE a.x = a.y")
	if len(a.Joins) != 0 {
		t.Errorf("self-column equality misclassified as join: %v", a.Joins)
	}
}

func TestAnalyzeSubqueryTablesAndJoins(t *testing.T) {
	a := analyze(t, `SELECT * FROM part p WHERE p.p_partkey IN
		(SELECT ps.ps_partkey FROM partsupp ps, supplier s WHERE ps.ps_suppkey = s.s_suppkey)`)
	wantTables := []string{"part", "partsupp", "supplier"}
	if !reflect.DeepEqual(a.Tables, wantTables) {
		t.Errorf("tables: got %v, want %v", a.Tables, wantTables)
	}
	// Two joins: the explicit supplier join inside the subquery plus the
	// semijoin edge implied by IN (SELECT ...).
	if len(a.Joins) != 2 {
		t.Errorf("joins: %v", a.Joins)
	}
	if a.Joins[1].String() != "part.p_partkey = partsupp.ps_partkey" &&
		a.Joins[0].String() != "part.p_partkey = partsupp.ps_partkey" {
		t.Errorf("semijoin edge missing: %v", a.Joins)
	}
}

func TestAnalyzeSemijoinEdge(t *testing.T) {
	a := analyze(t, `SELECT s.s_name FROM supplier s WHERE s.s_suppkey IN
		(SELECT ps.ps_suppkey FROM partsupp ps)`)
	if len(a.Joins) != 1 || a.Joins[0].String() != "partsupp.ps_suppkey = supplier.s_suppkey" {
		t.Errorf("joins: %v", a.Joins)
	}
}

func TestAnalyzeQuantifiedSemijoin(t *testing.T) {
	a := analyze(t, `SELECT * FROM orders o WHERE o.o_orderkey = ANY
		(SELECT l.l_orderkey FROM lineitem l)`)
	if len(a.Joins) != 1 || a.Joins[0].String() != "lineitem.l_orderkey = orders.o_orderkey" {
		t.Errorf("joins: %v", a.Joins)
	}
}

func TestAnalyzeCorrelatedSubquery(t *testing.T) {
	a := analyze(t, `SELECT * FROM orders o WHERE EXISTS
		(SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)`)
	if len(a.Joins) != 1 {
		t.Fatalf("correlated join not found: %v", a.Joins)
	}
	if a.Joins[0].String() != "lineitem.l_orderkey = orders.o_orderkey" {
		t.Errorf("join: %s", a.Joins[0])
	}
}

func TestAnalyzeUnqualifiedSingleTable(t *testing.T) {
	a := analyze(t, "SELECT * FROM t WHERE x > 5")
	if len(a.Filters) != 1 || a.Filters[0].Table != "t" || a.Filters[0].Column != "x" || a.Filters[0].Kind != FilterRange {
		t.Errorf("unqualified filter resolution: %v", a.Filters)
	}
}

func TestAnalyzeCaseAndFuncArgs(t *testing.T) {
	a := analyze(t, `SELECT SUM(CASE WHEN n.n_name = 'BRAZIL' THEN 1 ELSE 0 END)
		FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey`)
	if len(a.Joins) != 1 {
		t.Errorf("joins: %v", a.Joins)
	}
	found := false
	for _, f := range a.Filters {
		if f.Table == "nation" && f.Column == "n_name" && f.Kind == FilterEq {
			found = true
		}
	}
	if !found {
		t.Errorf("filter inside CASE not found: %v", a.Filters)
	}
}

func TestJoinConditionCanonicalIdempotent(t *testing.T) {
	j := JoinCondition{"b", "y", "a", "x"}
	c := j.Canonical()
	if c != c.Canonical() {
		t.Error("Canonical not idempotent")
	}
	if c.LeftTable != "a" {
		t.Errorf("canonical order: %v", c)
	}
}

func TestAnalyzeDerivedTable(t *testing.T) {
	a := analyze(t, `SELECT dt.rev FROM
		(SELECT l.l_extendedprice AS rev, l.l_orderkey FROM lineitem l) dt, orders o
		WHERE dt.l_orderkey = o.o_orderkey AND dt.rev > 100`)
	wantTables := []string{"lineitem", "orders"}
	if !reflect.DeepEqual(a.Tables, wantTables) {
		t.Errorf("tables: %v", a.Tables)
	}
	// The derived column dt.l_orderkey resolves through to lineitem.
	if len(a.Joins) != 1 || a.Joins[0].String() != "lineitem.l_orderkey = orders.o_orderkey" {
		t.Errorf("joins: %v", a.Joins)
	}
	// dt.rev > 100 resolves to lineitem.l_extendedprice.
	found := false
	for _, f := range a.Filters {
		if f.Table == "lineitem" && f.Column == "l_extendedprice" && f.Kind == FilterRange {
			found = true
		}
	}
	if !found {
		t.Errorf("derived filter not resolved: %v", a.Filters)
	}
}

func TestAnalyzeDerivedTableInnerPredicates(t *testing.T) {
	// Joins and filters inside the derived table count toward the analysis.
	a := analyze(t, `SELECT x.cnt FROM
		(SELECT COUNT(*) AS cnt FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 'BUILDING') x`)
	if len(a.Joins) != 1 || a.Joins[0].String() != "customer.c_custkey = orders.o_custkey" {
		t.Errorf("inner join lost: %v", a.Joins)
	}
	found := false
	for _, f := range a.Filters {
		if f.Table == "customer" && f.Column == "c_mktsegment" {
			found = true
		}
	}
	if !found {
		t.Errorf("inner filter lost: %v", a.Filters)
	}
}

func TestParseDerivedTableRequiresAlias(t *testing.T) {
	if _, err := Parse("SELECT a FROM (SELECT b FROM t)"); err == nil {
		t.Error("derived table without alias accepted")
	}
}

func TestParseDerivedTableRoundTrip(t *testing.T) {
	q := "SELECT dt.a FROM (SELECT t.a FROM t) dt WHERE dt.a > 1"
	s1, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	r1 := s1.SQL()
	s2, err := Parse(r1)
	if err != nil {
		t.Fatalf("re-parse %q: %v", r1, err)
	}
	if r2 := s2.SQL(); r1 != r2 {
		t.Errorf("not a fixed point: %q vs %q", r1, r2)
	}
}

func TestAnalyzeDerivedJoinToDerived(t *testing.T) {
	a := analyze(t, `SELECT COUNT(*) FROM
		(SELECT l.l_orderkey FROM lineitem l) a,
		(SELECT o.o_orderkey FROM orders o) b
		WHERE a.l_orderkey = b.o_orderkey`)
	if len(a.Joins) != 1 || a.Joins[0].String() != "lineitem.l_orderkey = orders.o_orderkey" {
		t.Errorf("derived-derived join: %v", a.Joins)
	}
}

// TestAnalyzeUnqualifiedUncertain: an unqualified name stays unattributed
// when a derived table is in scope, since it may be one of the derived
// table's columns, and in GROUP BY, HAVING and ORDER BY when a select-list
// alias has that name; WHERE still attributes it.
func TestAnalyzeUnqualifiedUncertain(t *testing.T) {
	for _, q := range []string{
		"SELECT * FROM (SELECT * FROM orders) x, customer WHERE o_totalprice > 5",
		"SELECT * FROM (SELECT o_totalprice FROM (SELECT * FROM orders) y, customer) x WHERE x.o_totalprice > 5",
		"SELECT * FROM (SELECT * FROM orders) x WHERE x.o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_bogus = 1)",
		"SELECT o_custkey, COUNT(*) AS cnt FROM orders GROUP BY o_custkey HAVING cnt > 10",
	} {
		if a := analyze(t, q); len(a.Filters) != 0 || len(a.Joins) != 0 {
			t.Errorf("%s: filters %v, joins %v, want none", q, a.Filters, a.Joins)
		}
	}
	// The aliases are not visible in WHERE, nor in a subquery of HAVING.
	for q, kind := range map[string]FilterKind{
		"SELECT o_custkey AS cnt FROM orders WHERE cnt > 10":                                                                   FilterRange,
		"SELECT o_custkey AS cnt FROM orders GROUP BY o_custkey HAVING COUNT(*) > (SELECT COUNT(*) FROM orders WHERE cnt = 1)": FilterEq,
	} {
		want := []Filter{{ColumnUse{"orders", "cnt"}, kind}}
		if a := analyze(t, q); !reflect.DeepEqual(a.Filters, want) {
			t.Errorf("%s: filters %v, want %v", q, a.Filters, want)
		}
	}
}
