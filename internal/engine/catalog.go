// Package engine implements the simulated DBMS that λ-Tune tunes.
//
// The engine substitutes for the PostgreSQL 12 / MySQL 8 installations of the
// paper's testbed. It exposes exactly the surfaces λ-Tune and the baselines
// observe on a real system: a configuration interface (ALTER SYSTEM SET /
// SET GLOBAL plus CREATE INDEX), an EXPLAIN facility with per-join cost
// estimates, query execution with timeouts, and index-creation times. Query
// runtimes come from a deterministic cost model on a virtual clock, so
// experiments are fast and bit-for-bit reproducible while preserving the
// parameter→performance couplings that the tuning algorithms exploit.
package engine

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Column describes one column of a table with its statistics.
type Column struct {
	Name string
	// WidthBytes is the average stored width.
	WidthBytes int
	// Distinct is the number of distinct values (≥ 1).
	Distinct int64
}

// Table describes a base table with its statistics.
type Table struct {
	Name    string
	Rows    int64
	Columns []Column
	// PrimaryKey lists the primary-key columns (used for the
	// "initial indexes" scenario).
	PrimaryKey []string
	// ForeignKeys lists foreign-key columns.
	ForeignKeys []string
}

// RowWidth returns the total average row width in bytes.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.WidthBytes
	}
	if w == 0 {
		w = 8
	}
	return w
}

// Pages returns the number of 8 KiB pages the table occupies.
func (t *Table) Pages() int64 {
	p := t.Rows * int64(t.RowWidth()) / 8192
	if p < 1 {
		p = 1
	}
	return p
}

// SizeBytes returns the table size in bytes.
func (t *Table) SizeBytes() int64 { return t.Rows * int64(t.RowWidth()) }

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return &t.Columns[i]
		}
	}
	return nil
}

// Catalog is the schema plus statistics of a database. It is immutable
// after NewCatalog.
type Catalog struct {
	Name   string
	tables map[string]*Table
	// totalBytes is the size of all tables, summed once by NewCatalog.
	totalBytes int64
}

// NewCatalog builds a catalog from table definitions. Table, column and key
// names are normalized to lower case in copies; the caller's slices stay as
// given.
func NewCatalog(name string, tables []Table) *Catalog {
	c := &Catalog{Name: name, tables: make(map[string]*Table, len(tables))}
	for i := range tables {
		t := tables[i]
		t.Name = strings.ToLower(t.Name)
		t.Columns = slices.Clone(t.Columns)
		t.PrimaryKey = slices.Clone(t.PrimaryKey)
		t.ForeignKeys = slices.Clone(t.ForeignKeys)
		for j := range t.Columns {
			t.Columns[j].Name = strings.ToLower(t.Columns[j].Name)
			if t.Columns[j].Distinct < 1 {
				t.Columns[j].Distinct = 1
			}
		}
		for j := range t.PrimaryKey {
			t.PrimaryKey[j] = strings.ToLower(t.PrimaryKey[j])
		}
		for j := range t.ForeignKeys {
			t.ForeignKeys[j] = strings.ToLower(t.ForeignKeys[j])
		}
		c.tables[t.Name] = &t
	}
	for _, t := range c.tables {
		c.totalBytes += t.SizeBytes()
	}
	return c
}

// Table returns the named table (case-insensitive), or nil.
func (c *Catalog) Table(name string) *Table {
	return c.tables[strings.ToLower(name)]
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Table, len(names))
	for i, n := range names {
		out[i] = c.tables[n]
	}
	return out
}

// Fingerprint digests the catalog — name, tables, statistics, and key
// declarations — into a stable hex string. Two catalogs fingerprint equal
// exactly when the cost model sees the same schema, so the runtime uses it
// (with the workload digest) to key cross-job memo namespaces: jobs may share
// memo state only when their simulated plans are provably interchangeable.
func (c *Catalog) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "catalog %s\n", c.Name)
	for _, t := range c.Tables() {
		fmt.Fprintf(h, "table %s rows %d pk %q fk %q\n", t.Name, t.Rows, t.PrimaryKey, t.ForeignKeys)
		for _, col := range t.Columns {
			fmt.Fprintf(h, "col %s width %d distinct %d\n", col.Name, col.WidthBytes, col.Distinct)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TotalBytes returns the size of all tables.
func (c *Catalog) TotalBytes() int64 { return c.totalBytes }

// Validate checks referential sanity of the catalog definition.
func (c *Catalog) Validate() error {
	for _, t := range c.tables {
		if t.Rows <= 0 {
			return fmt.Errorf("engine: table %s has non-positive row count", t.Name)
		}
		if len(t.Columns) == 0 {
			return fmt.Errorf("engine: table %s has no columns", t.Name)
		}
		for _, pk := range t.PrimaryKey {
			if t.Column(pk) == nil {
				return fmt.Errorf("engine: table %s: primary key column %s not found", t.Name, pk)
			}
		}
		for _, fk := range t.ForeignKeys {
			if t.Column(fk) == nil {
				return fmt.Errorf("engine: table %s: foreign key column %s not found", t.Name, fk)
			}
		}
	}
	return nil
}

// Hardware describes the machine hosting the database, mirroring the two
// properties λ-Tune's prompt conveys (paper §3.1).
type Hardware struct {
	Cores       int
	MemoryBytes int64
}

// DefaultHardware matches the paper's EC2 p3.2xlarge testbed
// (8 vCPU, 61 GB RAM).
var DefaultHardware = Hardware{Cores: 8, MemoryBytes: 61 << 30}
