package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// maxDepth bounds how deeply a statement nests. Each subquery, each
// expression (a select item or predicate, a parenthesised expression, a
// function argument, a CASE arm, an IN list entry), each NOT or unary minus,
// and each operator or predicate chained onto an expression adds a level,
// since each deepens the AST by one. The parser and every walk over the AST
// recurse once per level, and running out of goroutine stack is a fatal
// error that no recover can catch, so a deeper statement is a parse error.
// The built-in queries stay below 40 levels.
const maxDepth = 1000

// maxPooledTokens caps the token buffers tokenPool keeps, so one huge input
// does not pin its buffer for the life of the process.
const maxPooledTokens = 1 << 14

// tokenPool recycles Parse's token buffers. No token outlives a parse: the
// AST keeps only token texts, which are slices of the input or static
// keyword spellings, so a buffer is cleared and reused.
var tokenPool = sync.Pool{New: func() any { return new([]Token) }}

// Parse parses a single SELECT statement (an optional trailing semicolon is
// allowed) and returns its AST.
func Parse(input string) (*SelectStmt, error) {
	buf := tokenPool.Get().(*[]Token)
	toks, err := lex((*buf)[:0], input)
	var stmt *SelectStmt
	if err == nil {
		stmt, err = parseTokens(toks)
	}
	clear(toks) // drop the texts, which would pin the input
	if cap(toks) <= maxPooledTokens {
		*buf = toks[:0]
		tokenPool.Put(buf)
	}
	return stmt, err
}

// parseTokens parses one statement from a lexed token stream.
func parseTokens(toks []Token) (*SelectStmt, error) {
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokenSymbol && p.peek().Text == ";" {
		p.next()
	}
	if p.peek().Kind != TokenEOF {
		return nil, p.errf("unexpected trailing token %s", p.peek())
	}
	return stmt, nil
}

// MustParse is Parse that panics on error. Intended for workload definitions
// whose queries are fixed at compile time and covered by tests.
func MustParse(input string) *SelectStmt {
	stmt, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return stmt
}

type parser struct {
	toks []Token
	pos  int
	// depth is the nesting level being parsed; see maxDepth.
	depth int
}

func (p *parser) peek() Token  { return p.toks[p.pos] }
func (p *parser) peek2() Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparser: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().Pos)
}

// nest enters one more nesting level, failing past maxDepth. Callers restore
// p.depth when the nested construct is done; after an error the parse is
// abandoned, so error paths need not.
func (p *parser) nest() error {
	if p.depth >= maxDepth {
		return p.errf("statement nests deeper than %d levels", maxDepth)
	}
	p.depth++
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().Kind == TokenKeyword && p.peek().Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().Kind == TokenSymbol && p.peek().Text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q, got %s", sym, p.peek())
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	stmt, err := p.parseSelectBody()
	p.depth--
	return stmt, err
}

func (p *parser) parseSelectBody() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	stmt.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Select = append(stmt.Select, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		te, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, te)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.Kind != TokenNumber {
			return nil, p.errf("expected number after LIMIT, got %s", t)
		}
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT value %q", t.Text)
		}
		stmt.Limit = &v
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.peek().Kind == TokenSymbol && p.peek().Text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.next()
		if t.Kind != TokenIdent && t.Kind != TokenKeyword {
			return SelectItem{}, p.errf("expected alias after AS, got %s", t)
		}
		item.Alias = t.Text
	} else if p.peek().Kind == TokenIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseTableExpr() (TableExpr, error) {
	var te TableExpr
	if p.peek().Kind == TokenSymbol && p.peek().Text == "(" {
		// Derived table: FROM (SELECT …) alias.
		p.next()
		sub, err := p.parseSelect()
		if err != nil {
			return TableExpr{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return TableExpr{}, err
		}
		p.acceptKeyword("AS")
		a := p.next()
		if a.Kind != TokenIdent {
			return TableExpr{}, p.errf("derived table requires an alias, got %s", a)
		}
		te = TableExpr{Subquery: sub, Alias: a.Text}
	} else {
		name, alias, err := p.parseTableName()
		if err != nil {
			return TableExpr{}, err
		}
		te = TableExpr{Table: name, Alias: alias}
	}
	for {
		kind, ok := p.peekJoin()
		if !ok {
			return te, nil
		}
		jn, ja, err := p.parseTableName()
		if err != nil {
			return TableExpr{}, err
		}
		jc := JoinClause{Kind: kind, Table: jn, Alias: ja}
		if kind != JoinCross {
			if err := p.expectKeyword("ON"); err != nil {
				return TableExpr{}, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return TableExpr{}, err
			}
			jc.On = on
		}
		te.Joins = append(te.Joins, jc)
	}
}

// peekJoin consumes and classifies a JOIN introducer if present.
func (p *parser) peekJoin() (JoinKind, bool) {
	switch {
	case p.acceptKeyword("JOIN"):
		return JoinInner, true
	case p.acceptKeyword("INNER"):
		p.acceptKeyword("JOIN")
		return JoinInner, true
	case p.acceptKeyword("LEFT"):
		p.acceptKeyword("OUTER")
		p.acceptKeyword("JOIN")
		return JoinLeft, true
	case p.acceptKeyword("RIGHT"):
		p.acceptKeyword("OUTER")
		p.acceptKeyword("JOIN")
		return JoinRight, true
	case p.acceptKeyword("FULL"):
		p.acceptKeyword("OUTER")
		p.acceptKeyword("JOIN")
		return JoinFull, true
	case p.acceptKeyword("CROSS"):
		p.acceptKeyword("JOIN")
		return JoinCross, true
	}
	return 0, false
}

func (p *parser) parseTableName() (name, alias string, err error) {
	t := p.next()
	if t.Kind != TokenIdent {
		return "", "", p.errf("expected table name, got %s", t)
	}
	name = t.Text
	if p.acceptKeyword("AS") {
		a := p.next()
		if a.Kind != TokenIdent {
			return "", "", p.errf("expected alias after AS, got %s", a)
		}
		return name, a.Text, nil
	}
	if p.peek().Kind == TokenIdent {
		alias = p.next().Text
	}
	return name, alias, nil
}

// Expression grammar (precedence climbing):
//
//	expr    := or
//	or      := and (OR and)*
//	and     := not (AND not)*
//	not     := NOT not | predicate
//	predicate := cmp [IS [NOT] NULL | [NOT] (IN | BETWEEN | LIKE) ...]
//	cmp     := add (( = | <> | != | < | > | <= | >= ) add)?
//	add     := mul (( + | - | "||" ) mul)*
//	mul     := unary (( * | / | % ) unary)*
//	unary   := - unary | primary
func (p *parser) parseExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	p.depth--
	return e, err
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	depth := p.depth
	for p.acceptKeyword("OR") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	p.depth = depth
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	depth := p.depth
	for p.acceptKeyword("AND") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	p.depth = depth
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &UnaryExpr{Op: "NOT", Expr: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	if p.peek().Kind == TokenKeyword && p.peek().Text == "EXISTS" {
		p.next()
		return p.parseExistsTail(false)
	}
	left, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	// Each predicate below wraps left in one more node.
	depth := p.depth
	for {
		switch {
		case p.peek().Kind == TokenKeyword && p.peek().Text == "IS":
			if err := p.nest(); err != nil {
				return nil, err
			}
			p.next()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{Not: not, Expr: left}
		case p.peek().Kind == TokenKeyword && p.peek().Text == "NOT" &&
			p.peek2().Kind == TokenKeyword &&
			(p.peek2().Text == "IN" || p.peek2().Text == "BETWEEN" || p.peek2().Text == "LIKE"):
			if err := p.nest(); err != nil {
				return nil, err
			}
			p.next() // NOT
			e, err := p.parsePredicateTail(left, true)
			if err != nil {
				return nil, err
			}
			left = e
		case p.peek().Kind == TokenKeyword &&
			(p.peek().Text == "IN" || p.peek().Text == "BETWEEN" || p.peek().Text == "LIKE"):
			if err := p.nest(); err != nil {
				return nil, err
			}
			e, err := p.parsePredicateTail(left, false)
			if err != nil {
				return nil, err
			}
			left = e
		default:
			p.depth = depth
			return left, nil
		}
	}
}

func (p *parser) parseExistsTail(not bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	sub, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &ExistsExpr{Not: not, Subquery: sub}, nil
}

func (p *parser) parsePredicateTail(left Expr, not bool) (Expr, error) {
	switch p.next().Text {
	case "IN":
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if p.peek().Kind == TokenKeyword && p.peek().Text == "SELECT" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &InExpr{Not: not, Expr: left, Subquery: sub}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{Not: not, Expr: left, List: list}, nil
	case "BETWEEN":
		lo, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Not: not, Expr: left, Lo: lo, Hi: hi}, nil
	case "LIKE":
		pat, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		op := "LIKE"
		if not {
			op = "NOT LIKE"
		}
		return &BinaryExpr{Op: op, Left: left, Right: pat}, nil
	}
	return nil, p.errf("internal: bad predicate tail")
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokenSymbol {
		switch p.peek().Text {
		case "=", "<>", "!=", "<", ">", "<=", ">=":
			op := p.next().Text
			if op == "!=" {
				op = "<>"
			}
			// Quantified comparison: = ANY (subquery) etc.
			if p.peek().Kind == TokenKeyword &&
				(p.peek().Text == "ANY" || p.peek().Text == "ALL" || p.peek().Text == "SOME") {
				quant := p.next().Text
				if err := p.expectSymbol("("); err != nil {
					return nil, err
				}
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &BinaryExpr{Op: op + " " + quant, Left: left, Right: &SubqueryExpr{Subquery: sub}}, nil
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	depth := p.depth
	for p.peek().Kind == TokenSymbol &&
		(p.peek().Text == "+" || p.peek().Text == "-" || p.peek().Text == "||") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		op := p.next().Text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	p.depth = depth
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	depth := p.depth
	for p.peek().Kind == TokenSymbol &&
		(p.peek().Text == "*" || p.peek().Text == "/" || p.peek().Text == "%") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		op := p.next().Text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	p.depth = depth
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().Kind == TokenSymbol && p.peek().Text == "-" {
		if err := p.nest(); err != nil {
			return nil, err
		}
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &UnaryExpr{Op: "-", Expr: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokenNumber:
		p.next()
		return &NumberLit{Value: t.Text}, nil
	case TokenString:
		p.next()
		return &StringLit{Value: t.Text}, nil
	case TokenSymbol:
		if t.Text == "(" {
			p.next()
			if p.peek().Kind == TokenKeyword && p.peek().Text == "SELECT" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Subquery: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &ParenExpr{Expr: e}, nil
		}
	case TokenKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &NullLit{}, nil
		case "TRUE":
			p.next()
			return &BoolLit{Value: true}, nil
		case "FALSE":
			p.next()
			return &BoolLit{Value: false}, nil
		case "CASE":
			return p.parseCase()
		case "INTERVAL":
			p.next()
			v := p.next()
			if v.Kind != TokenString {
				return nil, p.errf("expected string after INTERVAL, got %s", v)
			}
			val := v.Text
			// Optional unit keyword/identifier, folded into the value.
			if p.peek().Kind == TokenIdent {
				val += " " + strings.ToLower(p.next().Text)
			}
			return &IntervalLit{Value: val}, nil
		case "DATE":
			p.next()
			v := p.next()
			if v.Kind != TokenString {
				return nil, p.errf("expected string after DATE, got %s", v)
			}
			return &DateLit{Value: v.Text}, nil
		case "EXISTS":
			p.next()
			return p.parseExistsTail(false)
		case "COUNT", "SUM", "AVG", "MIN", "MAX", "SUBSTRING", "EXTRACT", "CAST":
			return p.parseFuncCall()
		}
	case TokenIdent:
		if p.peek2().Kind == TokenSymbol && p.peek2().Text == "(" {
			return p.parseFuncCall()
		}
		p.next()
		if p.acceptSymbol(".") {
			col := p.next()
			if col.Kind != TokenIdent && col.Kind != TokenKeyword {
				return nil, p.errf("expected column after %q., got %s", t.Text, col)
			}
			return &ColumnRef{Qualifier: t.Text, Column: col.Text}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	}
	return nil, p.errf("unexpected token %s in expression", t)
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	if !(p.peek().Kind == TokenKeyword && p.peek().Text == "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE without WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := strings.ToUpper(p.next().Text)
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.acceptSymbol("*") {
		fc.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptSymbol(")") {
		return fc, nil
	}
	fc.Distinct = p.acceptKeyword("DISTINCT")
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		// EXTRACT(year FROM col) and CAST(x AS type): fold the keyword into
		// the arg list by skipping the connective.
		if p.acceptKeyword("FROM") || p.acceptKeyword("AS") {
			continue
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return fc, nil
}
