package engine

import (
	"math"
	"strings"

	"lambdatune/internal/sqlparser"
)

// "Hardware truth" constants: the actual per-operation costs of the simulated
// machine (NVMe-backed storage, so random IO is only moderately more
// expensive than sequential). The optimizer plans with the *tunable* cost
// constants; the executor charges these. The gap between the two is what
// makes tuning random_page_cost & friends matter, exactly as on a real
// system.
const (
	trueSeqPage       = 1.0
	trueRandomPage    = 2.5
	trueCPUTuple      = 0.005
	trueCPUIndexTuple = 0.003
	trueCPUOperator   = 0.0015
	// unitsPerSecond converts cost units to simulated seconds.
	unitsPerSecond = 25000.0
	// maxCacheFrac bounds how much of the working set can be cached.
	maxCacheFrac = 0.95
)

// queryShape is the half of a query's plan that reads neither settings nor
// indexes: the query's tables by position with their filtered
// cardinalities and the filters an index scan could serve, and the greedy
// left-deep join order with each step's cardinalities and the condition its
// operator evaluates. It depends only on the query's analysis and the
// catalog's statistics, so shapeOf builds it once per (query, catalog) and
// publishes it on the Query, and every plan then only picks access paths
// and join operators along it. It is query preparation, not a memoized
// result, so SetPlanCache leaves it on. Read-only once published.
type queryShape struct {
	// catalog is the catalog the shape was built against.
	catalog *Catalog
	tables  []shapeTable
	// start is the position of the table the join order starts from.
	start int
	steps []shapeStep
}

// shapeTable is one table of a shape, at its position in Analysis.Tables.
type shapeTable struct {
	name  string
	table *Table
	// filteredRows after applying constant predicates.
	filteredRows float64
	// filters are the non-LIKE constant filters naming the table, in
	// analysis order: the predicates a B-tree index scan can serve.
	filters []scanFilter
}

// scanFilter is one filter of a shapeTable.
type scanFilter struct {
	column string
	// group is the probe group of (table, column).
	group string
	// sel is the filter's selectivity on the table.
	sel float64
}

// filterSel returns the selectivity of the table's filter on column c, which
// the caller knows exists. Analyze keeps one filter per column; should a
// hand-built analysis hold several, the last one counts.
func (t *shapeTable) filterSel(c string) float64 {
	for k := len(t.filters) - 1; k >= 0; k-- {
		if t.filters[k].column == c {
			return t.filters[k].sel
		}
	}
	return 1
}

// shapeStep is one step of a shape's join order.
type shapeStep struct {
	// table is the position of the table the step joins in.
	table int
	// in and out are the intermediate cardinalities before and after it.
	in, out float64
	// join indexes Analysis.Joins with the first condition linking table to
	// the tables joined before it, the one the step's operator evaluates;
	// -1 for a cartesian step.
	join int
	// group is the probe group of join's column on table's side, where an
	// index nested-loop join looks for an index.
	group string
}

// plannerScratch is a per-DB allocation arena for planning: the map and
// slices a shape build or a plan needs are cleared and reused across calls
// instead of re-made. One DB plans one query at a time (snapshots get their
// own arena), so a single arena per instance suffices. Everything here is
// working state only — nothing in a shape or a returned Plan may alias it.
type plannerScratch struct {
	pos       map[string]int // table name → position in the shape
	joins     []joinRef
	joined    []bool
	conds     []joinRef
	bestConds []joinRef
	sels      []float64
	scans     []PlanStep
}

// scratchArena returns db's planner arena, making it on first use.
func (db *DB) scratchArena() *plannerScratch {
	if db.scratch == nil {
		db.scratch = &plannerScratch{pos: map[string]int{}}
	}
	return db.scratch
}

// joinRef is one join condition of the query resolved against its tables:
// the position of each side (-1 for a table outside the query) and the
// distinct count of each side's column (0 when the column is unknown).
type joinRef struct {
	join                        int // index into q.Analysis.Joins
	left, right                 int
	leftDistinct, rightDistinct int64
}

// selectivity estimates the fraction of rows passing a constant filter.
func selectivity(col *Column, kind sqlparser.FilterKind) float64 {
	switch kind {
	case sqlparser.FilterEq:
		if col == nil || col.Distinct <= 1 {
			return 0.5
		}
		return 1.0 / float64(col.Distinct)
	case sqlparser.FilterIn:
		if col == nil || col.Distinct <= 1 {
			return 0.5
		}
		s := 5.0 / float64(col.Distinct)
		if s > 0.25 {
			s = 0.25
		}
		return s
	case sqlparser.FilterRange:
		return 0.30
	case sqlparser.FilterLike:
		return 0.08
	}
	return 0.5
}

// cacheFrac is the fraction of pages served from the buffer pool given the
// configured buffer size and the total database size. A small baseline
// accounts for OS page cache.
func (db *DB) cacheFrac() float64 {
	total := db.catalog.TotalBytes()
	if total <= 0 {
		return maxCacheFrac
	}
	f := float64(db.eff.bufferBytes) / float64(total)
	f = 0.08 + 0.92*f
	if f > maxCacheFrac {
		f = maxCacheFrac
	}
	return f
}

// optCacheFrac is the *optimizer's belief* about caching, driven by
// effective_cache_size.
func (db *DB) optCacheFrac() float64 {
	total := db.catalog.TotalBytes()
	if total <= 0 {
		return maxCacheFrac
	}
	f := float64(db.eff.effectiveCache) / float64(total)
	if f > maxCacheFrac {
		f = maxCacheFrac
	}
	return f
}

// ioDiscount applies buffer caching to an IO cost: cached pages cost ~10% of
// a physical read.
func ioDiscount(cost, cacheFrac float64) float64 {
	return cost * (1 - cacheFrac + 0.1*cacheFrac)
}

// parallelSpeedup is the divisor applied to scan-dominated work.
func (db *DB) parallelSpeedup() float64 {
	w := db.eff.parallelWorkers
	if max := db.hw.Cores - 1; w > max {
		w = max
	}
	if w < 0 {
		w = 0
	}
	return 1 + 0.6*float64(w)
}

// ioConcurrencyDiscount shaves up to 20% off sequential IO.
func (db *DB) ioConcurrencyDiscount() float64 {
	d := 1 - 0.02*float64(db.eff.ioConcurrency)
	if d < 0.8 {
		d = 0.8
	}
	return d
}

// plan builds the full plan for q: an access path for each table of q's
// shape under the current settings and indexes, one join operator per step
// of the shape's join order, then the final aggregation.
func (db *DB) plan(q *Query) *Plan {
	sh := db.shapeOf(q)
	if len(sh.tables) == 0 {
		return &Plan{}
	}
	scans := db.chooseScans(sh)
	steps := make([]PlanStep, 1, len(sh.tables)+1)
	steps[0] = scans[sh.start]
	// The join conditions are copied out of the query into one array: the
	// steps are retained in the (possibly cached) Plan and must not alias it.
	conds := make([]sqlparser.JoinCondition, len(sh.steps))
	for i, st := range sh.steps {
		var joinCond *sqlparser.JoinCondition
		if st.join >= 0 {
			conds[i] = q.Analysis.Joins[st.join]
			joinCond = &conds[i]
		}
		steps = append(steps, db.joinStep(sh, scans, st, joinCond))
	}
	plan := &Plan{Steps: steps}
	db.addAggregate(q, plan)
	return plan
}

// shapeOf returns q's shape for db's catalog, building and publishing it
// when q holds none for this catalog. Planners on several snapshots may
// build it at once; their shapes are identical, so any of them may win.
func (db *DB) shapeOf(q *Query) *queryShape {
	if sh := q.shape.Load(); sh != nil && sh.catalog == db.catalog {
		return sh
	}
	sh := db.buildShape(q)
	q.shape.Store(sh)
	return sh
}

// buildShape computes q's shape against db's catalog. It resolves the
// query's tables to positions and its join conditions to (position, distinct
// count) pairs in the scratch arena, so the join search compares integers
// instead of strings, and allocates only the slices the shape keeps.
func (db *DB) buildShape(q *Query) *queryShape {
	s := db.scratchArena()
	an := &q.Analysis
	tables := make([]shapeTable, len(an.Tables))
	clear(s.pos)
	for i, name := range an.Tables {
		s.pos[name] = i
		t := db.catalog.Table(name)
		if t == nil {
			// Unknown table: charge a nominal constant so execution still
			// "works" (mirrors a view or tiny side table).
			t = &Table{Name: name, Rows: 1000, Columns: []Column{{Name: "c", WidthBytes: 8, Distinct: 1000}}}
		}
		tables[i] = shapeTable{name: name, table: t, filteredRows: float64(t.Rows)}
	}
	// Constant predicates reduce per-table cardinalities. A filter's
	// selectivity is the same on every position holding its table.
	sels := s.sels[:0]
	for _, f := range an.Filters {
		sel := 1.0
		if i, ok := s.pos[f.Table]; ok {
			sel = selectivity(tables[i].table.Column(f.Column), f.Kind)
			tables[i].filteredRows *= sel
		}
		sels = append(sels, sel)
	}
	s.sels = sels
	for i := range tables {
		if tables[i].filteredRows < 1 {
			tables[i].filteredRows = 1
		}
	}
	// Each table's index-servable filters, in one backing array.
	n := 0
	for i := range tables {
		for _, f := range an.Filters {
			if f.Table == tables[i].name && f.Kind != sqlparser.FilterLike {
				n++
			}
		}
	}
	filters := make([]scanFilter, 0, n)
	for i := range tables {
		ti := &tables[i]
		from := len(filters)
		for k, f := range an.Filters {
			if f.Table == ti.name && f.Kind != sqlparser.FilterLike {
				filters = append(filters, scanFilter{column: f.Column, group: groupIn(q.probes, f.Table, f.Column), sel: sels[k]})
			}
		}
		ti.filters = filters[from:len(filters):len(filters)]
	}
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
	for i, j := range an.Joins {
		r := joinRef{join: i}
		r.left, r.leftDistinct = side(j.LeftTable, j.LeftColumn)
		r.right, r.rightDistinct = side(j.RightTable, j.RightColumn)
		joins = append(joins, r)
	}
	s.joins = joins
	sh := &queryShape{catalog: db.catalog, tables: tables}
	s.orderJoins(sh, q)
	return sh
}

// joinsFor returns the join conditions linking table n to any table in
// joined. The result aliases the scratch conds buffer and is only valid
// until the next joinsFor call (orderJoins copies the winner aside).
func (s *plannerScratch) joinsFor(n int, joined []bool) []joinRef {
	out := s.conds[:0]
	for _, j := range s.joins {
		if (j.left == n && j.right >= 0 && joined[j.right]) ||
			(j.right == n && j.left >= 0 && joined[j.left]) {
			out = append(out, j)
		}
	}
	s.conds = out
	return out
}

// orderJoins fills in sh's left-deep join sequence greedily: start from the
// smallest filtered table, repeatedly add the connected table minimizing
// the estimated join output. It reads the resolved joins in s.joins.
func (s *plannerScratch) orderJoins(sh *queryShape, q *Query) {
	tables := sh.tables
	if len(tables) == 0 {
		return
	}
	// Pick start: smallest filtered cardinality.
	start := 0
	for n := 1; n < len(tables); n++ {
		if tables[n].filteredRows < tables[start].filteredRows {
			start = n
		}
	}
	sh.start = start
	if cap(s.joined) < len(tables) {
		s.joined = make([]bool, len(tables))
	}
	joined := s.joined[:len(tables)]
	clear(joined)
	joined[start] = true
	curRows := tables[start].filteredRows
	sh.steps = make([]shapeStep, 0, len(tables)-1)

	for k := 1; k < len(tables); k++ {
		best := -1
		bestRows := math.Inf(1)
		bestConds := s.bestConds[:0]
		for n := range tables {
			if joined[n] {
				continue
			}
			conds := s.joinsFor(n, joined)
			rows := joinOutRows(tables, curRows, n, conds)
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
		s.bestConds = bestConds
		st := shapeStep{table: best, in: curRows, out: joinOutRows(tables, curRows, best, bestConds), join: -1}
		if len(bestConds) > 0 {
			c := bestConds[0]
			jc := q.Analysis.Joins[c.join]
			col := jc.LeftColumn
			if c.right == best {
				col = jc.RightColumn
			}
			st.join, st.group = c.join, groupIn(q.probes, tables[best].name, col)
		}
		sh.steps = append(sh.steps, st)
		joined[best] = true
		curRows = st.out
	}
}

// joinOutRows estimates the cardinality after joining the current
// intermediate (curRows) with table n over conds, each of which links n to
// a table already joined.
func joinOutRows(tables []shapeTable, curRows float64, n int, conds []joinRef) float64 {
	out := curRows * tables[n].filteredRows
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

// chooseScans picks seq vs index scan per table of sh by estimated cost. The
// result, indexed by position, lives in the scratch arena.
func (db *DB) chooseScans(sh *queryShape) []PlanStep {
	s := db.scratchArena()
	if cap(s.scans) < len(sh.tables) {
		s.scans = make([]PlanStep, len(sh.tables))
	}
	scans := s.scans[:len(sh.tables)]
	e := db.eff
	optCache := db.optCacheFrac()
	trueCache := db.cacheFrac()
	par := db.parallelSpeedup()
	ioc := db.ioConcurrencyDiscount()

	for i := range sh.tables {
		ti := &sh.tables[i]
		name, t := ti.name, ti.table
		pages := float64(t.Pages())
		rows := float64(t.Rows)

		// The planner knows parallel workers speed up sequential scans
		// (parallel plans have divided costs in Postgres), while index
		// scans run in a single worker.
		seqEst := (pages*e.seqPageCost + rows*e.cpuTupleCost) / par
		seqTrue := (ioDiscount(pages*trueSeqPage*ioc, trueCache) + rows*trueCPUTuple) / par

		best := PlanStep{Kind: StepSeqScan, Table: name, EstCost: seqEst, TrueSeconds: seqTrue / unitsPerSecond, OutRows: ti.filteredRows}
		if !e.enableSeqScan {
			best.EstCost *= 1e6 // discouraged, still available as fallback
		}

		if e.enableIndexScan {
			// The most selective indexed filter drives the index scan. B-tree
			// indexes can't serve %pattern% predicates, so LIKE filters never
			// appear here.
			for _, f := range ti.filters {
				cols, n := db.indexPrefixMatch(f.group, ti.filters)
				if n == 0 {
					continue
				}
				sel := f.sel
				// A composite key narrows the scan by each additional
				// matched prefix column's selectivity.
				_, rest, _ := strings.Cut(cols, "+")
				for k := 1; k < n; k++ {
					var extra string
					extra, rest, _ = strings.Cut(rest, "+")
					if extra == f.column {
						continue
					}
					sel *= ti.filterSel(extra)
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
		scans[i] = best
	}
	return scans
}

// joinStep builds the cheapest join operator for step st, which brings
// table st.table into the plan over joinCond (nil for a cartesian step).
func (db *DB) joinStep(sh *queryShape, scans []PlanStep, st shapeStep, joinCond *sqlparser.JoinCondition) PlanStep {
	e := db.eff
	inner := &sh.tables[st.table]
	name := inner.name
	curRows, outRows := st.in, st.out
	trueCache := db.cacheFrac()
	par := db.parallelSpeedup()

	// Option 1: hash join — scan inner, build hash table, probe with outer.
	scan := scans[st.table]
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
		if db.hasIndexOnColumn(st.group) {
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

// sortWork carries a sort's CPU and spill components so the planner can
// price it with either cost constants.
type sortWork struct {
	cpuOps     float64
	spillPages float64
}

func sortCost(rows float64, workMem int64) sortWork {
	if rows < 2 {
		rows = 2
	}
	w := sortWork{cpuOps: rows * math.Log2(rows)}
	bytes := rows * 24
	if workMem > 0 && bytes > float64(workMem) {
		w.spillPages = bytes * 2 / 8192 // external sort: write + read runs
	}
	return w
}

func (w sortWork) est(e effects) float64 {
	return w.cpuOps*e.cpuOperatorCost + w.spillPages*e.seqPageCost
}

func (w sortWork) truth() float64 {
	return w.cpuOps*trueCPUOperator + w.spillPages*trueSeqPage
}

// addAggregate appends q's final aggregation/sort step.
func (db *DB) addAggregate(q *Query, plan *Plan) {
	if len(plan.Steps) == 0 {
		return
	}
	e := db.eff
	rows := plan.Steps[len(plan.Steps)-1].OutRows
	work := rows * 2
	if n := len(q.Stmt.GroupBy); n > 0 {
		work += rows * float64(n)
	}
	if n := len(q.Stmt.OrderBy); n > 0 && rows > 1 {
		work += rows * math.Log2(rows+2)
	}
	// Sorting beyond work_mem spills to disk.
	sortBytes := rows * 32
	spill := 0.0
	if e.workMemBytes > 0 && sortBytes > float64(e.workMemBytes) && len(q.Stmt.OrderBy) > 0 {
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
