package engine

import (
	"math"
	"strings"

	"lambdatune/internal/sqlparser"
)

// This file keeps the planner as it stood before the configuration-free half
// of a plan moved into a per-query shape and index probes moved onto the
// per-group key lists: plan, its planner with the greedy orderJoins,
// hasIndexOnColumn and indexPrefixMatch, copied verbatim apart from the
// names and one line: planReference allocates its scratch arena per call
// instead of keeping it on the DB. TestPlanMatchesReference requires Plan to
// return exactly planReference's plan.

// plannerReference builds and costs a plan for one query under the current settings
// and index set. It names a table by its position in q.Analysis.Tables.
type plannerReference struct {
	db *DB
	q  *Query
	// tables holds the query's tables by position, with per-table filtered
	// cardinalities.
	tables []tableInfoReference
	// joins resolves q.Analysis.Joins, in order, against tables.
	joins []joinRefReference
	// scratch backs the maps and slices above; see plannerScratchReference.
	s *plannerScratchReference
}

// plannerScratchReference is a per-DB allocation arena for planning: the maps and
// slices a single plan() call needs are cleared and reused across calls
// instead of re-made. One DB plans one query at a time (snapshots get their
// own arena), so a single arena per instance suffices. Everything here is
// working state only — nothing in a returned Plan may alias it.
type plannerScratchReference struct {
	p          plannerReference
	tables     []tableInfoReference
	pos        map[string]int // table name → position in tables
	joins      []joinRefReference
	filterKind map[string]sqlparser.FilterKind
	wanted     map[string]bool
	joined     []bool
	conds      []joinRefReference
	bestConds  []joinRefReference
}

func newPlannerScratchReference() *plannerScratchReference {
	return &plannerScratchReference{
		pos:        map[string]int{},
		filterKind: map[string]sqlparser.FilterKind{},
		wanted:     map[string]bool{},
	}
}

type tableInfoReference struct {
	name  string
	table *Table
	// filteredRows after applying constant predicates.
	filteredRows float64
	// scan holds the chosen access path.
	scan PlanStep
}

// joinRefReference is one join condition of the query resolved against its tables:
// the position of each side (-1 for a table outside the query) and the
// distinct count of each side's column (0 when the column is unknown).
type joinRefReference struct {
	join                        int // index into q.Analysis.Joins
	left, right                 int
	leftDistinct, rightDistinct int64
}

// planReference builds the full plan for q. It resolves the query's tables to
// positions and its join conditions to (position, distinct count) pairs once,
// so the join search below compares integers instead of strings.
func (db *DB) planReference(q *Query) *Plan {
	s := newPlannerScratchReference()
	clear(s.pos)
	tables := s.tables[:0]
	for i, name := range q.Analysis.Tables {
		s.pos[name] = i
		t := db.catalog.Table(name)
		if t == nil {
			// Unknown table: charge a nominal constant so execution still
			// "works" (mirrors a view or tiny side table).
			t = &Table{Name: name, Rows: 1000, Columns: []Column{{Name: "c", WidthBytes: 8, Distinct: 1000}}}
		}
		tables = append(tables, tableInfoReference{name: name, table: t, filteredRows: float64(t.Rows)})
	}
	s.tables = tables
	side := func(table, column string) (int, int64) {
		i, ok := s.pos[table]
		if !ok {
			return -1, 0
		}
		if c := tables[i].table.Column(column); c != nil {
			return i, c.Distinct
		}
		return i, 0
	}
	joins := s.joins[:0]
	for i, j := range q.Analysis.Joins {
		r := joinRefReference{join: i}
		r.left, r.leftDistinct = side(j.LeftTable, j.LeftColumn)
		r.right, r.rightDistinct = side(j.RightTable, j.RightColumn)
		joins = append(joins, r)
	}
	s.joins = joins
	s.p = plannerReference{db: db, q: q, tables: tables, joins: joins, s: s}
	p := &s.p
	p.applyFilters()
	p.chooseScans()
	plan := p.orderJoinsReference()
	p.addAggregate(plan)
	return plan
}

// applyFilters reduces per-table cardinalities using the query's constant
// predicates.
func (p *plannerReference) applyFilters() {
	for _, f := range p.q.Analysis.Filters {
		i, ok := p.s.pos[f.Table]
		if !ok {
			continue
		}
		ti := &p.tables[i]
		col := ti.table.Column(f.Column)
		ti.filteredRows *= selectivity(col, f.Kind)
	}
	for i := range p.tables {
		if p.tables[i].filteredRows < 1 {
			p.tables[i].filteredRows = 1
		}
	}
}

// chooseScans picks seq vs index scan per table by estimated cost.
func (p *plannerReference) chooseScans() {
	db := p.db
	e := db.eff
	optCache := db.optCacheFrac()
	trueCache := db.cacheFrac()
	par := db.parallelSpeedup()
	ioc := db.ioConcurrencyDiscount()

	for i := range p.tables {
		ti := &p.tables[i]
		name, t := ti.name, ti.table
		pages := float64(t.Pages())
		rows := float64(t.Rows)

		// The plannerReference knows parallel workers speed up sequential scans
		// (parallel plans have divided costs in Postgres), while index
		// scans run in a single worker.
		seqEst := (pages*e.seqPageCost + rows*e.cpuTupleCost) / par
		seqTrue := (ioDiscount(pages*trueSeqPage*ioc, trueCache) + rows*trueCPUTuple) / par

		best := PlanStep{Kind: StepSeqScan, Table: name, EstCost: seqEst, TrueSeconds: seqTrue / unitsPerSecond, OutRows: ti.filteredRows}
		if !e.enableSeqScan {
			best.EstCost *= 1e6 // discouraged, still available as fallback
		}

		if e.enableIndexScan {
			// Other filtered columns of this table, for composite-prefix
			// matching.
			filterKind := p.s.filterKind
			clear(filterKind)
			for _, f := range p.q.Analysis.Filters {
				if f.Table == name && f.Kind != sqlparser.FilterLike {
					filterKind[f.Column] = f.Kind
				}
			}
			wanted := p.s.wanted
			clear(wanted)
			for c := range filterKind {
				wanted[c] = true
			}
			// The most selective indexed filter drives the index scan.
			for _, f := range p.q.Analysis.Filters {
				if f.Table != name {
					continue
				}
				if f.Kind == sqlparser.FilterLike {
					continue // B-tree can't serve %pattern% predicates
				}
				prefix := db.indexPrefixMatchReference(name, f.Column, wanted)
				if len(prefix) == 0 {
					continue
				}
				col := t.Column(f.Column)
				sel := selectivity(col, f.Kind)
				// A composite key narrows the scan by each additional
				// matched prefix column's selectivity.
				for _, extra := range prefix[1:] {
					if extra == f.Column {
						continue
					}
					sel *= selectivity(t.Column(extra), filterKind[extra])
				}
				selRows := rows * sel
				if selRows < 1 {
					selRows = 1
				}
				selPages := selRows * float64(t.RowWidth()) / 8192
				if selPages < 1 {
					selPages = 1
				}
				height := math.Log2(rows + 2)
				idxEst := selPages*e.randomPageCost*(1-0.75*optCache) +
					selRows*(e.cpuIndexTupleCost+e.cpuTupleCost) + height*e.randomPageCost
				idxTrue := ioDiscount(selPages*trueRandomPage, trueCache) +
					selRows*(trueCPUIndexTuple+trueCPUTuple) + height*trueRandomPage
				if idxEst < best.EstCost {
					best = PlanStep{
						Kind: StepIndexScan, Table: name,
						EstCost: idxEst, TrueSeconds: idxTrue / unitsPerSecond,
						OutRows: ti.filteredRows,
					}
				}
			}
		}
		ti.scan = best
	}
}

// joinsFor returns the join conditions linking table n to any table in
// joined. The result aliases the scratch conds buffer and is only valid
// until the next joinsFor call (orderJoinsReference copies the winner aside).
func (p *plannerReference) joinsFor(n int, joined []bool) []joinRefReference {
	out := p.s.conds[:0]
	for _, j := range p.joins {
		if (j.left == n && j.right >= 0 && joined[j.right]) ||
			(j.right == n && j.left >= 0 && joined[j.left]) {
			out = append(out, j)
		}
	}
	p.s.conds = out
	return out
}

// orderJoinsReference builds a left-deep join sequence greedily: start from the
// smallest filtered table, repeatedly add the connected table minimizing the
// estimated join output.
func (p *plannerReference) orderJoinsReference() *Plan {
	tables := p.tables
	if len(tables) == 0 {
		return &Plan{}
	}
	// Pick start: smallest filtered cardinality.
	start := 0
	for n := 1; n < len(tables); n++ {
		if tables[n].filteredRows < tables[start].filteredRows {
			start = n
		}
	}
	if cap(p.s.joined) < len(tables) {
		p.s.joined = make([]bool, len(tables))
	}
	joined := p.s.joined[:len(tables)]
	clear(joined)
	joined[start] = true
	plan := &Plan{Steps: []PlanStep{tables[start].scan}}
	curRows := tables[start].filteredRows

	for k := 1; k < len(tables); k++ {
		best := -1
		bestRows := math.Inf(1)
		bestConds := p.s.bestConds[:0]
		for n := range tables {
			if joined[n] {
				continue
			}
			conds := p.joinsFor(n, joined)
			rows := p.joinOutRows(curRows, n, conds)
			// Prefer connected tables strongly over cartesian products.
			penalty := 1.0
			if len(conds) == 0 {
				penalty = 1e12
			}
			// The first candidate always qualifies, so a table is chosen
			// even when every estimate overflows to +Inf.
			if best < 0 || rows*penalty < bestRows {
				bestRows = rows * penalty
				best = n
				// Copy aside: conds aliases the scratch buffer the next
				// joinsFor call overwrites.
				bestConds = append(bestConds[:0], conds...)
			}
		}
		p.s.bestConds = bestConds
		step := p.joinStep(curRows, best, bestConds)
		plan.Steps = append(plan.Steps, step)
		joined[best] = true
		curRows = step.OutRows
	}
	return plan
}

// joinOutRows estimates the cardinality after joining the current
// intermediate (curRows) with table n over conds, each of which links n to
// a table already joined.
func (p *plannerReference) joinOutRows(curRows float64, n int, conds []joinRefReference) float64 {
	out := curRows * p.tables[n].filteredRows
	for _, c := range conds {
		// n's column distinct count, raised to the other side's when larger.
		d, other := c.leftDistinct, c.rightDistinct
		if c.right == n {
			d, other = c.rightDistinct, c.leftDistinct
		}
		if other > d {
			d = other
		}
		if d < 1 {
			d = 1
		}
		out /= float64(d)
	}
	if out < 1 {
		out = 1
	}
	return out
}

// joinStep builds the cheapest join operator bringing table n into the plan.
func (p *plannerReference) joinStep(curRows float64, n int, conds []joinRefReference) PlanStep {
	db := p.db
	e := db.eff
	inner := &p.tables[n]
	name := inner.name
	outRows := p.joinOutRows(curRows, n, conds)
	trueCache := db.cacheFrac()
	par := db.parallelSpeedup()

	var joinCond *sqlparser.JoinCondition
	if len(conds) > 0 {
		// Copy the condition out of the query: the returned step is
		// retained in the (possibly cached) Plan and must not alias it.
		jc := p.q.Analysis.Joins[conds[0].join]
		joinCond = &jc
	}

	// Option 1: hash join — scan inner, build hash table, probe with outer.
	scan := inner.scan
	buildRows := inner.filteredRows
	buildBytes := buildRows * 24 // hashed key + pointer
	passes := 1.0
	if e.workMemBytes > 0 && buildBytes > float64(e.workMemBytes) {
		passes = math.Ceil(buildBytes / float64(e.workMemBytes))
		if passes > 8 {
			passes = 8
		}
	}
	spillIOPages := 0.0
	if passes > 1 {
		spillIOPages = (buildBytes + curRows*24) / 8192 * (passes - 1)
	}
	hashEst := scan.EstCost + buildRows*e.cpuOperatorCost*2 + curRows*e.cpuOperatorCost +
		spillIOPages*e.seqPageCost
	hashTrue := scan.TrueSeconds*unitsPerSecond +
		(buildRows*trueCPUOperator*2+curRows*trueCPUOperator+spillIOPages*trueSeqPage)/par
	if !e.enableHashJoin {
		hashEst *= 1e6
	}

	best := PlanStep{Kind: StepHashJoin, Table: name, Join: joinCond, EstCost: hashEst, TrueSeconds: hashTrue / unitsPerSecond, OutRows: outRows}

	// Option 2: index nested-loop — for each outer row, probe inner's index
	// on the join column.
	if e.enableNestLoop && e.enableIndexScan && joinCond != nil {
		innerCol := joinCond.LeftColumn
		if conds[0].right == n {
			innerCol = joinCond.RightColumn
		}
		if db.hasIndexOnColumnReference(name, innerCol) {
			innerRows := float64(inner.table.Rows)
			height := math.Log2(innerRows + 2)
			matchRows := outRows / math.Max(curRows, 1)
			if matchRows < 1 {
				matchRows = 1
			}
			optCache := db.optCacheFrac()
			perProbeEst := height*e.cpuIndexTupleCost + e.randomPageCost*(1-0.75*optCache)*(1+matchRows*0.2) + matchRows*e.cpuTupleCost
			perProbeTrue := height*trueCPUIndexTuple + ioDiscount(trueRandomPage*(1+matchRows*0.2), trueCache) + matchRows*trueCPUTuple
			inlEst := curRows * perProbeEst
			inlTrue := curRows * perProbeTrue / par
			if inlEst < best.EstCost {
				best = PlanStep{Kind: StepIndexNLJoin, Table: name, Join: joinCond, EstCost: inlEst, TrueSeconds: inlTrue / unitsPerSecond, OutRows: outRows}
			}
		}
	}

	// Option 3: sort-merge join — sort both inputs, one merge pass. Usually
	// dominated by hash join, but it is the equality-join fallback when
	// hash joins are disabled or work_mem is prohibitively small.
	if joinCond != nil {
		so := sortCost(curRows, e.workMemBytes)
		si := sortCost(inner.filteredRows, e.workMemBytes)
		mergeEst := scan.EstCost + so.est(e) + si.est(e) + (curRows+inner.filteredRows)*e.cpuOperatorCost
		mergeTrue := scan.TrueSeconds*unitsPerSecond + (so.truth()+si.truth())/par + (curRows+inner.filteredRows)*trueCPUOperator/par
		if mergeEst < best.EstCost || (best.Kind == StepHashJoin && !e.enableHashJoin) {
			best = PlanStep{Kind: StepMergeJoin, Table: name, Join: joinCond, EstCost: mergeEst, TrueSeconds: mergeTrue / unitsPerSecond, OutRows: outRows}
		}
	}

	// Option 4 (fallback): plain nested loop for cartesian products.
	if joinCond == nil {
		nlEst := scan.EstCost + curRows*inner.filteredRows*e.cpuOperatorCost
		nlTrue := scan.TrueSeconds*unitsPerSecond + curRows*inner.filteredRows*trueCPUOperator/par
		best = PlanStep{Kind: StepNestLoop, Table: name, Join: joinCond, EstCost: nlEst, TrueSeconds: nlTrue / unitsPerSecond, OutRows: outRows}
	}
	return best
}

// addAggregate appends the final aggregation/sort step.
func (p *plannerReference) addAggregate(plan *Plan) {
	if len(plan.Steps) == 0 {
		return
	}
	db := p.db
	e := db.eff
	rows := plan.Steps[len(plan.Steps)-1].OutRows
	work := rows * 2
	if n := len(p.q.Stmt.GroupBy); n > 0 {
		work += rows * float64(n)
	}
	if n := len(p.q.Stmt.OrderBy); n > 0 && rows > 1 {
		work += rows * math.Log2(rows+2)
	}
	// Sorting beyond work_mem spills to disk.
	sortBytes := rows * 32
	spill := 0.0
	if e.workMemBytes > 0 && sortBytes > float64(e.workMemBytes) && len(p.q.Stmt.OrderBy) > 0 {
		spill = sortBytes * 2 / 8192
	}
	est := work*e.cpuOperatorCost + spill*e.seqPageCost
	tru := work*trueCPUOperator + spill*trueSeqPage
	plan.Steps = append(plan.Steps, PlanStep{
		Kind: StepAggregate, EstCost: est,
		TrueSeconds: tru / unitsPerSecond / db.parallelSpeedup(),
		OutRows:     math.Max(1, rows/10),
	})
}

// hasIndexOnColumnReference reports whether any index has the column as its leading
// key.
func (db *DB) hasIndexOnColumnReference(table, column string) bool {
	table = strings.ToLower(table)
	column = strings.ToLower(column)
	for _, def := range db.indexes {
		if lead, _, _ := strings.Cut(def.Columns, "+"); def.Table == table && lead == column {
			return true
		}
	}
	return false
}

// indexPrefixMatchReference returns, among indexes on `table` whose leading key is
// `column`, the longest key prefix whose trailing columns all appear in
// `wanted` (nil when no such index exists). Composite indexes whose trailing
// key columns match further predicates narrow an index scan beyond the
// leading column. Equally long prefixes go to the smallest index key, so the
// choice never depends on map iteration order (snapshots copy the map).
func (db *DB) indexPrefixMatchReference(table, column string, wanted map[string]bool) []string {
	table = strings.ToLower(table)
	column = strings.ToLower(column)
	var (
		best    []string
		bestKey string
	)
	for key, def := range db.indexes {
		if lead, _, _ := strings.Cut(def.Columns, "+"); def.Table != table || lead != column {
			continue
		}
		cols := def.ColumnList()
		n := 1
		for _, c := range cols[1:] {
			if !wanted[c] {
				break
			}
			n++
		}
		if n > len(best) || (n == len(best) && key < bestKey) {
			best, bestKey = cols[:n], key
		}
	}
	return best
}

// PlanReference exports planReference to the external tests.
func PlanReference(db *DB, q *Query) *Plan { return db.planReference(q) }
