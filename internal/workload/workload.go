// Package workload defines the benchmark workloads of the paper's evaluation
// (TPC-H at scale factors 1 and 10, TPC-DS at scale factor 1, and the Join
// Order Benchmark) as schemas with statistics plus SQL query sets.
//
// The tuning algorithms consume only query text and table statistics, never
// tuples, so the workloads carry per-scale-factor row counts, column widths,
// and distinct counts instead of generated data (see DESIGN.md §2). A few
// TPC-H/TPC-DS queries that use derived tables (subqueries in FROM) are
// flattened into equivalent join structures, which is the only property the
// algorithms observe.
package workload

import (
	"fmt"
	"strings"

	"lambdatune/internal/engine"
	"lambdatune/internal/sqlparser"
)

// Join and Filter alias the analyzer's types for brevity.
type (
	Join   = sqlparser.JoinCondition
	Filter = sqlparser.Filter
)

// Workload bundles a catalog with its query set.
type Workload struct {
	// Name identifies the benchmark, e.g. "TPC-H SF1".
	Name    string
	Catalog *engine.Catalog
	Queries []*engine.Query
}

// builtin is one built-in benchmark: the canonical name Names lists, the
// aliases ByName also accepts, the display title its Workload carries as
// Name, and its constructor. Title reads the title without constructing —
// building JOB parses 113 queries, too much to pay just to name a run.
type builtin struct {
	name    string
	aliases []string
	title   string
	build   func() *Workload
}

// builtins is the one table ByName, Names and Title read.
var builtins = []builtin{
	{name: "tpch-1", aliases: []string{"tpch"}, title: "TPC-H SF1", build: func() *Workload { return TPCH(1) }},
	{name: "tpch-10", title: "TPC-H SF10", build: func() *Workload { return TPCH(10) }},
	{name: "tpcds-1", aliases: []string{"tpcds"}, title: "TPC-DS SF1", build: func() *Workload { return TPCDS(1) }},
	{name: "job", title: "JOB", build: JOB},
}

// lookup finds a built-in benchmark by name or alias, case-insensitively.
func lookup(name string) (*builtin, error) {
	for i := range builtins {
		b := &builtins[i]
		if strings.EqualFold(name, b.name) {
			return b, nil
		}
		for _, a := range b.aliases {
			if strings.EqualFold(name, a) {
				return b, nil
			}
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// ByName returns the named benchmark workload. Recognized names:
// "tpch-1", "tpch-10", "tpcds-1", "job".
func ByName(name string) (*Workload, error) {
	b, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return b.build(), nil
}

// Title returns the display name ByName(name).Name carries ("TPC-H SF1",
// "JOB", ...) without building the workload.
func Title(name string) (string, error) {
	b, err := lookup(name)
	if err != nil {
		return "", err
	}
	return b.title, nil
}

// Names lists the recognized benchmark names.
func Names() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return names
}

// prepare compiles query texts, panicking on parse errors (the query sets
// are fixed and covered by tests).
func prepare(prefix string, sqls []string) []*engine.Query {
	out := make([]*engine.Query, len(sqls))
	for i, sql := range sqls {
		out[i] = engine.MustPrepareQuery(fmt.Sprintf("%s%d", prefix, i+1), sql)
	}
	return out
}

// InitialIndexes returns the PK/FK indexes created before tuning starts in
// the paper's "Initial Indexes = Yes" scenario (Figure 3): one index per
// primary-key and foreign-key column referenced by the workload.
func (w *Workload) InitialIndexes() []engine.IndexDef {
	referenced := map[string]bool{}
	for _, q := range w.Queries {
		for _, t := range q.Analysis.Tables {
			referenced[t] = true
		}
	}
	var defs []engine.IndexDef
	seen := map[string]bool{}
	add := func(table, col string) {
		def := engine.NewIndexDef(table, col)
		if !seen[def.Key()] {
			seen[def.Key()] = true
			defs = append(defs, def)
		}
	}
	for _, t := range w.Catalog.Tables() {
		if !referenced[t.Name] {
			continue
		}
		for _, pk := range t.PrimaryKey {
			add(t.Name, pk)
		}
		for _, fk := range t.ForeignKeys {
			add(t.Name, fk)
		}
	}
	return defs
}

// Obfuscate returns a copy of the workload with table and column names
// replaced by generic identifiers ("Tx"/"Cy"), reproducing the ablation of
// paper §6.4.3. Join structure and statistics are preserved.
func (w *Workload) Obfuscate() *Workload {
	tmap := map[string]string{}
	cmap := map[string]string{}
	var tables []engine.Table
	tn, cn := 0, 0
	for _, t := range w.Catalog.Tables() {
		tn++
		newT := engine.Table{Name: fmt.Sprintf("t%d", tn), Rows: t.Rows}
		tmap[t.Name] = newT.Name
		for _, c := range t.Columns {
			cn++
			name := fmt.Sprintf("c%d", cn)
			cmap[t.Name+"."+c.Name] = name
			newT.Columns = append(newT.Columns, engine.Column{Name: name, WidthBytes: c.WidthBytes, Distinct: c.Distinct})
		}
		for _, pk := range t.PrimaryKey {
			newT.PrimaryKey = append(newT.PrimaryKey, cmap[t.Name+"."+pk])
		}
		for _, fk := range t.ForeignKeys {
			newT.ForeignKeys = append(newT.ForeignKeys, cmap[t.Name+"."+fk])
		}
		tables = append(tables, newT)
	}
	cat := engine.NewCatalog(w.Catalog.Name+"-obfuscated", tables)

	queries := make([]*engine.Query, len(w.Queries))
	for i, q := range w.Queries {
		nq := *q
		an := q.Analysis
		nq.Analysis.Tables = make([]string, len(an.Tables))
		for j, t := range an.Tables {
			nq.Analysis.Tables[j] = tmap[t]
		}
		nq.Analysis.Joins = make([]Join, len(an.Joins))
		for j, jc := range an.Joins {
			nq.Analysis.Joins[j] = Join{
				LeftTable: tmap[jc.LeftTable], LeftColumn: cmap[jc.LeftTable+"."+jc.LeftColumn],
				RightTable: tmap[jc.RightTable], RightColumn: cmap[jc.RightTable+"."+jc.RightColumn],
			}.Canonical()
		}
		nq.Analysis.Filters = make([]Filter, len(an.Filters))
		for j, f := range an.Filters {
			nf := f
			nf.Table = tmap[f.Table]
			nf.Column = cmap[f.Table+"."+f.Column]
			nq.Analysis.Filters[j] = nf
		}
		queries[i] = &nq
	}
	return &Workload{Name: w.Name + " (obfuscated)", Catalog: cat, Queries: queries}
}
