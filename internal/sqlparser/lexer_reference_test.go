package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
)

// This file keeps the lexer and JoinCondition.Canonical as they stood
// before Lex moved onto input slices and a canonical-spelling keyword table
// and Canonical stopped concatenating: copied verbatim apart from the names.
// FuzzParse requires Lex to match lexReference token for token and error for
// error, and Canonical to match canonicalReference.

// LexReference and CanonicalReference export the references to the
// external tests.
var (
	LexReference       = lexReference
	CanonicalReference = canonicalReference
)

// keywordsReference recognized by the lexer. Identifiers matching these
// (case-insensitively) become TokenKeyword.
var keywordsReference = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "IN": true, "EXISTS": true, "BETWEEN": true,
	"LIKE": true, "IS": true, "NULL": true, "ASC": true, "DESC": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"OUTER": true, "CROSS": true, "ON": true, "DISTINCT": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "UNION": true,
	"ALL": true, "ANY": true, "SOME": true, "INTERVAL": true, "DATE": true,
	"SUBSTRING": true, "EXTRACT": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true, "TRUE": true, "FALSE": true,
	"CAST": true, "OFFSET": true,
}

// lexReference tokenizes the SQL input. It returns an error for unterminated strings
// or illegal characters.
func lexReference(input string) ([]Token, error) {
	var toks []Token
	i, n := 0, len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && input[i+1] == '*': // block comment
			end := strings.Index(input[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("sqlparser: unterminated comment at offset %d", i)
			}
			i += end + 4
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= n {
					return nil, fmt.Errorf("sqlparser: unterminated string at offset %d", i)
				}
				if input[j] == '\'' {
					if j+1 < n && input[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(input[j])
				j++
			}
			toks = append(toks, Token{TokenString, sb.String(), i})
			i = j + 1
		case isDigitReference(c) || (c == '.' && i+1 < n && isDigitReference(input[i+1])):
			j := i
			seenDot := false
			for j < n && (isDigitReference(input[j]) || (input[j] == '.' && !seenDot)) {
				if input[j] == '.' {
					seenDot = true
				}
				j++
			}
			toks = append(toks, Token{TokenNumber, input[i:j], i})
			i = j
		case isIdentStartReference(rune(c)):
			j := i
			for j < n && isIdentPartReference(rune(input[j])) {
				j++
			}
			word := input[i:j]
			upper := strings.ToUpper(word)
			if keywordsReference[upper] {
				toks = append(toks, Token{TokenKeyword, upper, i})
			} else {
				toks = append(toks, Token{TokenIdent, word, i})
			}
			i = j
		default:
			if sym, w := lexSymbolReference(input[i:]); w > 0 {
				toks = append(toks, Token{TokenSymbol, sym, i})
				i += w
			} else {
				return nil, fmt.Errorf("sqlparser: illegal character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, Token{TokenEOF, "", n})
	return toks, nil
}

// lexSymbolReference recognizes one- and two-character operators at the start of s.
func lexSymbolReference(s string) (string, int) {
	two := []string{"<>", "<=", ">=", "!=", "||"}
	for _, t := range two {
		if strings.HasPrefix(s, t) {
			return t, 2
		}
	}
	switch s[0] {
	case '(', ')', ',', ';', '.', '*', '=', '<', '>', '+', '-', '/', '%':
		return string(s[0]), 1
	}
	return "", 0
}

func isDigitReference(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStartReference(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPartReference(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// canonicalReference returns the condition with sides ordered deterministically
// (lexicographic by table.column), so A=B and B=A compare equal.
func canonicalReference(j JoinCondition) JoinCondition {
	l := j.LeftTable + "." + j.LeftColumn
	r := j.RightTable + "." + j.RightColumn
	if l <= r {
		return j
	}
	return JoinCondition{
		LeftTable: j.RightTable, LeftColumn: j.RightColumn,
		RightTable: j.LeftTable, RightColumn: j.LeftColumn,
	}
}
