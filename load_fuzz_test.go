package lambdatune

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadWorkload drives a custom workload from files to a plan: a schema
// JSON document through LoadSchema and NewDatabase (both flavors), one .sql
// file through LoadQueriesDir, and the workload through WorkloadSeconds.
// Each step must return an error or a value, never panic or hang.
func FuzzLoadWorkload(f *testing.F) {
	table := func(body string) []byte { return []byte(`{"tables":[` + body + `]}`) }
	join := "SELECT s_id FROM sales, products WHERE s_product = p_id AND p_id < 10"
	f.Add([]byte(testSchemaJSON), join)
	f.Add([]byte(`{"tables":[null]}`), "SELECT 1")
	f.Add(table(`{"name":"t","rows":0,"columns":[{"name":"a","widthBytes":8,"distinct":1}]}`), "SELECT a FROM t")
	f.Add(table(`{"name":"t","rows":-5,"columns":[{"name":"a","widthBytes":8,"distinct":1}]}`), "SELECT a FROM t WHERE a = 1")
	f.Add(table(`{"name":"t","rows":10}`), "SELECT * FROM t")
	f.Add(table(`{"name":"t","rows":10,"columns":[{"name":"a","widthBytes":8,"distinct":10}],"primaryKey":["zz"]}`), "SELECT a FROM t")
	f.Add(table(`{"name":"t","rows":9223372036854775807,"columns":[{"name":"a","widthBytes":2147483647,"distinct":9223372036854775807}]}`),
		"SELECT a FROM t, t AS u WHERE t.a = u.a")
	f.Add(table(`{"name":"t","rows":10,"columns":[{"name":"a","widthBytes":-8,"distinct":-3}]}`), "SELECT a FROM t WHERE a > 2")
	f.Add(table(`{"name":"T","rows":10,"columns":[{"name":"a","widthBytes":8,"distinct":10}]},{"name":"t","rows":10,"columns":[{"name":"a","widthBytes":8,"distinct":10}]}`),
		"SELECT a FROM t")
	f.Add([]byte(testSchemaJSON), "SELECT "+strings.Repeat("(", 1001)+"1"+strings.Repeat(")", 1001)+" FROM sales")
	f.Fuzz(func(t *testing.T, schema []byte, sql string) {
		dir := t.TempDir()
		schemaPath := filepath.Join(dir, "schema.json")
		queries := filepath.Join(dir, "queries")
		if err := os.WriteFile(schemaPath, schema, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(queries, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(queries, "q.sql"), []byte(sql), 0o644); err != nil {
			t.Fatal(err)
		}
		name, tables, err := LoadSchema(schemaPath)
		if err != nil {
			return
		}
		w, werr := LoadQueriesDir(queries)
		for _, dbms := range []DBMS{Postgres, MySQL} {
			db, err := NewDatabase(dbms, name, tables, DefaultHardware)
			if err != nil || werr != nil {
				continue
			}
			db.WorkloadSeconds(w)
		}
	})
}
