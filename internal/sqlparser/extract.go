package sqlparser

import (
	"sort"
	"strings"
)

// JoinCondition is an equality join predicate between two columns, with
// qualifiers resolved to base table names where possible.
type JoinCondition struct {
	LeftTable   string
	LeftColumn  string
	RightTable  string
	RightColumn string
}

// Canonical returns the condition with sides ordered deterministically
// (lexicographic by table.column), so A=B and B=A compare equal.
func (j JoinCondition) Canonical() JoinCondition {
	if dottedCompare(j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn) <= 0 {
		return j
	}
	return JoinCondition{
		LeftTable: j.RightTable, LeftColumn: j.RightColumn,
		RightTable: j.LeftTable, RightColumn: j.LeftColumn,
	}
}

// dottedCompare compares a1+"."+a2 with b1+"."+b2 byte by byte, as
// strings.Compare would, without building either string.
func dottedCompare(a1, a2, b1, b2 string) int {
	na, nb := len(a1)+1+len(a2), len(b1)+1+len(b2)
	for i := 0; i < na && i < nb; i++ {
		if ca, cb := dottedByte(a1, a2, i), dottedByte(b1, b2, i); ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
	switch {
	case na < nb:
		return -1
	case na > nb:
		return 1
	}
	return 0
}

// dottedByte returns byte i of s1+"."+s2.
func dottedByte(s1, s2 string, i int) byte {
	switch {
	case i < len(s1):
		return s1[i]
	case i == len(s1):
		return '.'
	}
	return s2[i-len(s1)-1]
}

// String renders "table.col = table.col".
func (j JoinCondition) String() string {
	return j.LeftTable + "." + j.LeftColumn + " = " + j.RightTable + "." + j.RightColumn
}

// FilterKind classifies how a column is compared against constants.
type FilterKind int

// Filter kinds, ordered by typical selectivity (equality most selective).
const (
	FilterEq FilterKind = iota
	FilterIn
	FilterRange
	FilterLike
)

func (k FilterKind) String() string {
	switch k {
	case FilterEq:
		return "eq"
	case FilterIn:
		return "in"
	case FilterRange:
		return "range"
	case FilterLike:
		return "like"
	}
	return "?"
}

// ColumnUse is a column reference with its resolved base table.
type ColumnUse struct {
	Table  string
	Column string
}

// Filter is a constant predicate on a column.
type Filter struct {
	ColumnUse
	Kind FilterKind
}

// Analysis summarizes the parts of a query that λ-Tune consumes.
type Analysis struct {
	// Tables are the base tables referenced anywhere in the query
	// (including subqueries), deduplicated and sorted.
	Tables []string
	// Joins are the equality join conditions, canonicalized and
	// deduplicated, in first-appearance order.
	Joins []JoinCondition
	// Filters are constant predicates on columns (candidates for index
	// usage), deduplicated by column; the most selective kind wins.
	Filters []Filter
}

// Analyze resolves aliases and extracts tables, join conditions, and filter
// columns from the statement and all of its subqueries (including derived
// tables in FROM, whose projected columns are resolved back to base tables).
func Analyze(stmt *SelectStmt) Analysis {
	a := &analyzer{
		seenJoin:   map[JoinCondition]bool{},
		seenTable:  map[string]bool{},
		seenFilter: map[ColumnUse]int{},
	}
	a.selectStmt(stmt, emptyScope())
	sort.Strings(a.out.Tables)
	return a.out
}

type analyzer struct {
	out        Analysis
	seenJoin   map[JoinCondition]bool
	seenTable  map[string]bool
	seenFilter map[ColumnUse]int // index into out.Filters + 1 (0 = absent)
}

// scopeInfo carries name resolution for one SELECT scope: alias → base
// table, plus derived-table projections mapped back to base columns.
type scopeInfo struct {
	// tables maps lower-cased aliases and table names to base table names.
	tables map[string]string
	// derived maps "alias.column" of a derived table's projection to the
	// underlying base column, when the projection is a plain column.
	derived map[string]ColumnUse
	// hasDerived is set when a derived table is in scope: an unqualified
	// name may then be one of its columns, which are not all known.
	hasDerived bool
	// selectList is set while GROUP BY, HAVING and ORDER BY are analyzed:
	// they may name its aliases. clone drops it.
	selectList []SelectItem
}

func emptyScope() *scopeInfo {
	return &scopeInfo{tables: map[string]string{}, derived: map[string]ColumnUse{}}
}

func (s *scopeInfo) clone() *scopeInfo {
	out := &scopeInfo{
		tables:     make(map[string]string, len(s.tables)),
		derived:    make(map[string]ColumnUse, len(s.derived)),
		hasDerived: s.hasDerived,
	}
	for k, v := range s.tables {
		out.tables[k] = v
	}
	for k, v := range s.derived {
		out.derived[k] = v
	}
	return out
}

// buildScope extends outer with the FROM items of a statement. Derived
// tables are analyzed as part of scope construction (their inner joins and
// filters count toward the analysis) and their plain-column projections are
// registered for resolution through the derived alias.
func (a *analyzer) buildScope(stmt *SelectStmt, outer *scopeInfo) *scopeInfo {
	scope := outer.clone()
	addBase := func(alias, table string) {
		if table == "" {
			return
		}
		a.addTable(table)
		if alias == "" {
			alias = table
		}
		scope.tables[strings.ToLower(alias)] = strings.ToLower(table)
		scope.tables[strings.ToLower(table)] = strings.ToLower(table)
	}
	for _, te := range stmt.From {
		if te.Subquery != nil {
			a.registerDerived(te, outer, scope)
			scope.hasDerived = true
		} else {
			addBase(te.Alias, te.Table)
		}
		for _, j := range te.Joins {
			addBase(j.Alias, j.Table)
		}
	}
	return scope
}

// registerDerived analyzes a derived table and maps its projected plain
// columns back to base tables under the derived alias.
func (a *analyzer) registerDerived(te TableExpr, outer, scope *scopeInfo) {
	// Analyze the subquery itself (tables, joins, filters inside count).
	a.selectStmt(te.Subquery, outer)
	inner := a.buildScopeShallow(te.Subquery, outer)
	alias := strings.ToLower(te.Alias)
	for _, item := range te.Subquery.Select {
		if item.Star || item.Expr == nil {
			continue
		}
		c, ok := item.Expr.(*ColumnRef)
		if !ok {
			continue
		}
		bt, bc, ok := a.resolveCol(c, inner)
		if !ok {
			continue
		}
		name := item.Alias
		if name == "" {
			name = c.Column
		}
		scope.derived[alias+"."+strings.ToLower(name)] = ColumnUse{Table: bt, Column: bc}
	}
}

// buildScopeShallow builds a statement's scope without re-analyzing derived
// subqueries (used when the subquery's analysis has already been recorded).
func (a *analyzer) buildScopeShallow(stmt *SelectStmt, outer *scopeInfo) *scopeInfo {
	scope := outer.clone()
	add := func(alias, table string) {
		if table == "" {
			return
		}
		if alias == "" {
			alias = table
		}
		scope.tables[strings.ToLower(alias)] = strings.ToLower(table)
		scope.tables[strings.ToLower(table)] = strings.ToLower(table)
	}
	for _, te := range stmt.From {
		scope.hasDerived = scope.hasDerived || te.Subquery != nil
		add(te.Alias, te.Table)
		for _, j := range te.Joins {
			add(j.Alias, j.Table)
		}
	}
	return scope
}

// selectStmt processes one SELECT scope. outer carries aliases visible from
// enclosing scopes (for correlated subqueries).
func (a *analyzer) selectStmt(stmt *SelectStmt, outer *scopeInfo) {
	scope := a.buildScope(stmt, outer)
	for _, te := range stmt.From {
		for _, j := range te.Joins {
			if j.On != nil {
				a.expr(j.On, scope)
			}
		}
	}
	for _, it := range stmt.Select {
		if it.Expr != nil {
			a.expr(it.Expr, scope)
		}
	}
	if stmt.Where != nil {
		a.expr(stmt.Where, scope)
	}
	scope.selectList = stmt.Select
	for _, g := range stmt.GroupBy {
		a.expr(g, scope)
	}
	if stmt.Having != nil {
		a.expr(stmt.Having, scope)
	}
	for _, o := range stmt.OrderBy {
		a.expr(o.Expr, scope)
	}
}

func (a *analyzer) addTable(name string) {
	name = strings.ToLower(name)
	if !a.seenTable[name] {
		a.seenTable[name] = true
		a.out.Tables = append(a.out.Tables, name)
	}
}

func (a *analyzer) addJoin(lt, lc, rt, rc string) {
	j := JoinCondition{LeftTable: lt, LeftColumn: lc, RightTable: rt, RightColumn: rc}.Canonical()
	if !a.seenJoin[j] {
		a.seenJoin[j] = true
		a.out.Joins = append(a.out.Joins, j)
	}
}

func (a *analyzer) addFilter(t, c string, kind FilterKind) {
	u := ColumnUse{Table: t, Column: c}
	if idx := a.seenFilter[u]; idx > 0 {
		// Keep the most selective (lowest) kind for the column.
		if kind < a.out.Filters[idx-1].Kind {
			a.out.Filters[idx-1].Kind = kind
		}
		return
	}
	a.out.Filters = append(a.out.Filters, Filter{ColumnUse: u, Kind: kind})
	a.seenFilter[u] = len(a.out.Filters)
}

// resolveCol maps a column reference to its base table and column via the
// scope, following derived-table projections. Returns ok=false when the
// reference cannot be attributed.
func (a *analyzer) resolveCol(c *ColumnRef, scope *scopeInfo) (table, column string, ok bool) {
	col := strings.ToLower(c.Column)
	if c.Qualifier != "" {
		q := strings.ToLower(c.Qualifier)
		if len(scope.derived) > 0 {
			if cu, ok := scope.derived[q+"."+col]; ok {
				return cu.Table, cu.Column, true
			}
		}
		t, ok := scope.tables[q]
		return t, col, ok
	}
	// Unqualified columns: attributable only when a single table is in
	// scope, that is, when every entry names the same table, and when the
	// name can be nothing else: no derived table is in scope and no
	// select-list alias has that name. Benchmarks qualify all shared
	// columns, so this is rare.
	if scope.hasDerived || isAlias(scope.selectList, col) {
		return "", "", false
	}
	only, found := "", false
	for _, t := range scope.tables {
		if found && t != only {
			return "", "", false
		}
		only, found = t, true
	}
	if !found {
		return "", "", false
	}
	return only, col, true
}

// isAlias reports whether an item of the select list is aliased as col.
func isAlias(items []SelectItem, col string) bool {
	for _, it := range items {
		if strings.EqualFold(it.Alias, col) {
			return true
		}
	}
	return false
}

func (a *analyzer) expr(e Expr, scope *scopeInfo) {
	switch x := e.(type) {
	case *BinaryExpr:
		// Quantified comparisons (= ANY / = ALL) against a subquery are
		// semijoins too.
		if strings.HasPrefix(x.Op, "= ") {
			if sub, ok := x.Right.(*SubqueryExpr); ok {
				if c, cok := x.Left.(*ColumnRef); cok {
					a.semijoin(c, sub.Subquery, scope)
				}
				a.expr(x.Left, scope)
				a.selectStmt(sub.Subquery, scope)
				return
			}
		}
		if x.Op == "=" {
			lc, lok := x.Left.(*ColumnRef)
			rc, rok := x.Right.(*ColumnRef)
			if lok && rok {
				lt, lcol, ltok := a.resolveCol(lc, scope)
				rt, rcol, rtok := a.resolveCol(rc, scope)
				if ltok && rtok && lt != rt {
					a.addJoin(lt, lcol, rt, rcol)
					return
				}
			}
			if lok && !rok {
				a.filterIfConstant(lc, x.Right, FilterEq, scope)
			}
			if rok && !lok {
				a.filterIfConstant(rc, x.Left, FilterEq, scope)
			}
		} else if isComparisonOp(x.Op) || x.Op == "LIKE" || x.Op == "NOT LIKE" {
			kind := FilterRange
			if strings.HasSuffix(x.Op, "LIKE") {
				kind = FilterLike
			}
			if lc, ok := x.Left.(*ColumnRef); ok {
				a.filterIfConstant(lc, x.Right, kind, scope)
			}
			if rc, ok := x.Right.(*ColumnRef); ok {
				a.filterIfConstant(rc, x.Left, kind, scope)
			}
		}
		a.expr(x.Left, scope)
		a.expr(x.Right, scope)
	case *UnaryExpr:
		a.expr(x.Expr, scope)
	case *ParenExpr:
		a.expr(x.Expr, scope)
	case *FuncCall:
		for _, arg := range x.Args {
			a.expr(arg, scope)
		}
	case *InExpr:
		if c, ok := x.Expr.(*ColumnRef); ok && x.Subquery == nil {
			if t, col, tok := a.resolveCol(c, scope); tok {
				a.addFilter(t, col, FilterIn)
			}
		}
		a.expr(x.Expr, scope)
		for _, item := range x.List {
			a.expr(item, scope)
		}
		if x.Subquery != nil {
			// col IN (SELECT c2 FROM ...) is a semijoin: register the
			// implied join edge, as query optimizers plan it.
			if c, ok := x.Expr.(*ColumnRef); ok {
				a.semijoin(c, x.Subquery, scope)
			}
			a.selectStmt(x.Subquery, scope)
		}
	case *BetweenExpr:
		if c, ok := x.Expr.(*ColumnRef); ok {
			if t, col, tok := a.resolveCol(c, scope); tok {
				a.addFilter(t, col, FilterRange)
			}
		}
		a.expr(x.Expr, scope)
		a.expr(x.Lo, scope)
		a.expr(x.Hi, scope)
	case *ExistsExpr:
		a.selectStmt(x.Subquery, scope)
	case *SubqueryExpr:
		a.selectStmt(x.Subquery, scope)
	case *IsNullExpr:
		a.expr(x.Expr, scope)
	case *CaseExpr:
		if x.Operand != nil {
			a.expr(x.Operand, scope)
		}
		for _, w := range x.Whens {
			a.expr(w.Cond, scope)
			a.expr(w.Then, scope)
		}
		if x.Else != nil {
			a.expr(x.Else, scope)
		}
	}
}

// semijoin registers the join edge implied by `outer IN (SELECT inner ...)`
// when the subquery projects a single plain column.
func (a *analyzer) semijoin(outer *ColumnRef, sub *SelectStmt, scope *scopeInfo) {
	ot, ocol, ook := a.resolveCol(outer, scope)
	if !ook {
		return
	}
	if len(sub.Select) != 1 || sub.Select[0].Star {
		return
	}
	inner, ok := sub.Select[0].Expr.(*ColumnRef)
	if !ok {
		return
	}
	subScope := a.buildScopeShallow(sub, scope)
	it, icol, iok := a.resolveCol(inner, subScope)
	if !iok || it == ot {
		return
	}
	a.addJoin(ot, ocol, it, icol)
}

// filterIfConstant records col as a filter column when other is a constant
// expression (literal or arithmetic over literals).
func (a *analyzer) filterIfConstant(col *ColumnRef, other Expr, kind FilterKind, scope *scopeInfo) {
	if !isConstantExpr(other) {
		return
	}
	if t, c, ok := a.resolveCol(col, scope); ok {
		a.addFilter(t, c, kind)
	}
}

func isConstantExpr(e Expr) bool {
	switch x := e.(type) {
	case *NumberLit, *StringLit, *NullLit, *BoolLit, *IntervalLit, *DateLit:
		return true
	case *UnaryExpr:
		return isConstantExpr(x.Expr)
	case *ParenExpr:
		return isConstantExpr(x.Expr)
	case *BinaryExpr:
		return isConstantExpr(x.Left) && isConstantExpr(x.Right)
	}
	return false
}

func isComparisonOp(op string) bool {
	switch op {
	case "=", "<>", "<", ">", "<=", ">=":
		return true
	}
	return false
}
