package sqlparser_test

import (
	"reflect"
	"strings"
	"testing"

	"lambdatune/internal/engine"
	"lambdatune/internal/sqlparser"
	"lambdatune/internal/workload"
)

// FuzzParse checks the front end on arbitrary text: Lex matches the
// reference lexer (lexer_reference_test.go) token for token and error for
// error, Canonical matches the concatenating reference, and PrepareQuery
// (lex, parse, analyze, probe groups) returns a query or an error and never
// panics. The seeds are every built-in query plus malformed input.
func FuzzParse(f *testing.F) {
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, q := range w.Queries {
			f.Add(q.SQL)
		}
	}
	for _, s := range []string{
		"",
		"SELECT 'unterminated",
		"SELECT 'a'' FROM t",
		"SELECT a FROM t WHERE b = 'it''s' AND c = ''''",
		"SELECT /* unterminated",
		"SELECT a -- trailing comment",
		"ſelect a from t",
		"SELECT a FROM t lımıt 1",
		"SELECT ź FROM ÿ",
		"!",
		"SELECT a FROM t WHERE a != 1 || 'x' <> b",
		"SELECT 1.2.3 FROM t",
		"SELECT a.b.c FROM t AS",
		"SELECT (((1) FROM t",
		"SELECT a FROM t, u WHERE t.x = u.y AND u.y = t.x AND t.x IN (SELECT v.z FROM v)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		toks, err := sqlparser.Lex(sql)
		want, wantErr := sqlparser.LexReference(sql)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("Lex(%q) error = %v, reference %v", sql, err, wantErr)
		}
		if !reflect.DeepEqual(toks, want) {
			t.Fatalf("Lex(%q) =\n%v\nreference\n%v", sql, toks, want)
		}

		parts := strings.SplitN(sql, " ", 4)
		for len(parts) < 4 {
			parts = append(parts, "")
		}
		jcs := []sqlparser.JoinCondition{
			{LeftTable: parts[0], LeftColumn: parts[1], RightTable: parts[2], RightColumn: parts[3]},
			{LeftTable: parts[2], LeftColumn: parts[3], RightTable: parts[0], RightColumn: parts[1]},
		}
		q, err := engine.PrepareQuery("fuzz", sql)
		if err == nil {
			jcs = append(jcs, q.Analysis.Joins...)
		}
		for _, jc := range jcs {
			if got, want := jc.Canonical(), sqlparser.CanonicalReference(jc); got != want {
				t.Fatalf("%+v.Canonical() = %+v, reference %+v", jc, got, want)
			}
		}
	})
}
