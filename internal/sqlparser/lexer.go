// Package sqlparser implements a lexer and recursive-descent parser for the
// analytical SQL subset used by the λ-Tune benchmarks (TPC-H, TPC-DS, JOB).
//
// The parser produces an AST rich enough for λ-Tune's needs: extracting join
// conditions, predicate columns, and table references. It is not a full SQL
// implementation; unsupported constructs yield parse errors rather than
// silently wrong ASTs.
package sqlparser

import (
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds produced by the lexer.
const (
	TokenEOF TokenKind = iota
	TokenIdent
	TokenKeyword
	TokenNumber
	TokenString
	TokenSymbol // punctuation and operators: ( ) , ; . * = <> < > <= >= + - / ||
)

// Token is a single lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int    // byte offset in the input
}

func (t Token) String() string {
	switch t.Kind {
	case TokenEOF:
		return "EOF"
	case TokenString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// keywordList holds every keyword the lexer recognizes, in its canonical
// upper-case spelling.
var keywordList = []string{
	"SELECT", "FROM", "WHERE", "GROUP", "BY",
	"HAVING", "ORDER", "LIMIT", "AS", "AND",
	"OR", "NOT", "IN", "EXISTS", "BETWEEN",
	"LIKE", "IS", "NULL", "ASC", "DESC",
	"JOIN", "INNER", "LEFT", "RIGHT", "FULL",
	"OUTER", "CROSS", "ON", "DISTINCT", "CASE",
	"WHEN", "THEN", "ELSE", "END", "UNION",
	"ALL", "ANY", "SOME", "INTERVAL", "DATE",
	"SUBSTRING", "EXTRACT", "COUNT", "SUM",
	"AVG", "MIN", "MAX", "TRUE", "FALSE",
	"CAST", "OFFSET",
}

// maxKeywordLen is the length of the longest keyword, SUBSTRING.
const maxKeywordLen = 9

// keywords maps each keyword to its canonical spelling, so a token's text
// is a static string rather than a freshly upper-cased copy.
var keywords = func() map[string]string {
	m := make(map[string]string, len(keywordList))
	for _, k := range keywordList {
		if len(k) > maxKeywordLen {
			panic("sqlparser: keyword " + k + " is longer than maxKeywordLen")
		}
		m[k] = k
	}
	return m
}()

// keyword returns the canonical spelling of word when word is a keyword
// (case-insensitively), upper-casing ASCII into a stack buffer for one map
// lookup. A word holding a byte >= 0x80 is never a keyword, exactly as
// under strings.ToUpper: Lex reads a word one byte at a time as a Latin-1
// rune, and the only runes >= 0x80 that strings.ToUpper maps into ASCII,
// ı (0xC4 0xB1) and ſ (0xC5 0xBF), cannot lie whole inside a word because
// 0xB1 and 0xBF are not letters. Every other byte upper-cases to a rune
// outside ASCII.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			return "", false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Lex tokenizes the SQL input. It returns an error for unterminated strings
// or illegal characters.
func Lex(input string) ([]Token, error) {
	// The built-in queries average one token per 3.9 to 4.5 bytes.
	toks, err := lex(make([]Token, 0, len(input)/4+2), input)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lex appends the tokens of input to toks. Every token text is a slice of
// input or a static keyword spelling, except a string literal holding a
// doubled quote, which is unescaped into a copy. On error the returned slice
// holds the tokens lexed so far, so Parse can recycle it.
func lex(toks []Token, input string) ([]Token, error) {
	i, n := 0, len(input)
	for i < n {
		if len(toks) == cap(toks) {
			// Each token takes at least one byte, so room for one token per
			// remaining byte, plus EOF, means the slice grows at most once.
			toks = slices.Grow(toks, n-i+1)
		}
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
				return toks, fmt.Errorf("sqlparser: unterminated comment at offset %d", i)
			}
			i += end + 4
		case c == '\'':
			j, escaped := i+1, false
			for {
				k := strings.IndexByte(input[j:], '\'')
				if k < 0 {
					return toks, fmt.Errorf("sqlparser: unterminated string at offset %d", i)
				}
				j += k
				if j+1 < n && input[j+1] == '\'' { // escaped quote
					escaped = true
					j += 2
					continue
				}
				break
			}
			text := input[i+1 : j]
			if escaped {
				// Every run of quotes inside the literal has even length, so
				// replacing pairs left to right undoes the escaping exactly.
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, Token{TokenString, text, i})
			i = j + 1
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			j := i
			seenDot := false
			for j < n && (isDigit(input[j]) || (input[j] == '.' && !seenDot)) {
				if input[j] == '.' {
					seenDot = true
				}
				j++
			}
			toks = append(toks, Token{TokenNumber, input[i:j], i})
			i = j
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentPart(rune(input[j])) {
				j++
			}
			word := input[i:j]
			if kw, ok := keyword(word); ok {
				toks = append(toks, Token{TokenKeyword, kw, i})
			} else {
				toks = append(toks, Token{TokenIdent, word, i})
			}
			i = j
		default:
			w := symbolWidth(input[i:])
			if w == 0 {
				return toks, fmt.Errorf("sqlparser: illegal character %q at offset %d", c, i)
			}
			toks = append(toks, Token{TokenSymbol, input[i : i+w], i})
			i += w
		}
	}
	toks = append(toks, Token{TokenEOF, "", n})
	return toks, nil
}

// symbolWidth returns the length of the operator at the start of s: 2 for
// <> <= >= != ||, 1 for a one-character symbol, 0 when s starts with none.
func symbolWidth(s string) int {
	if len(s) >= 2 {
		switch s[:2] {
		case "<>", "<=", ">=", "!=", "||":
			return 2
		}
	}
	switch s[0] {
	case '(', ')', ',', ';', '.', '*', '=', '<', '>', '+', '-', '/', '%':
		return 1
	}
	return 0
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
