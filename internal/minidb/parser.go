package minidb

import (
	"fmt"
	"strconv"
)

// Stmt is a parsed SQL statement.
type Stmt interface{ sqlStmt() }

// CreateStmt is CREATE TABLE name (col type, ...).
type CreateStmt struct {
	Table string
	Cols  []Column
}

// InsertStmt is INSERT INTO name VALUES (...), (...).
type InsertStmt struct {
	Table string
	Rows  [][]Value
}

// SelectStmt is SELECT ... FROM table [WHERE ...] [GROUP BY col]
// [ORDER BY col [DESC]] [LIMIT n] [UNION [ALL] SELECT ...]. The projection
// is either * (Star) or a list of columns/aggregates (Items).
type SelectStmt struct {
	Table     string
	Star      bool
	Items     []SelectItem
	Where     WhereExpr // nil when absent
	GroupBy   string    // "" when absent
	OrderBy   string    // "" when absent
	OrderDesc bool
	Limit     int // -1 when absent
	// Union chains a further SELECT whose rows are concatenated onto this
	// one's (deduplicated unless UnionAll). Each arm keeps its own ORDER
	// BY/LIMIT — the mini engine's simplification of standard binding.
	Union    *SelectStmt
	UnionAll bool
}

// HasAggregates reports whether any projection item aggregates.
func (s *SelectStmt) HasAggregates() bool {
	for _, it := range s.Items {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

// SetClause is one column assignment of an UPDATE.
type SetClause struct {
	Column string
	Value  Value
}

// UpdateStmt is UPDATE table SET col = lit, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where WhereExpr
}

// DeleteStmt is DELETE FROM table [WHERE ...].
type DeleteStmt struct {
	Table string
	Where WhereExpr
}

func (*CreateStmt) sqlStmt() {}
func (*InsertStmt) sqlStmt() {}
func (*SelectStmt) sqlStmt() {}
func (*UpdateStmt) sqlStmt() {}
func (*DeleteStmt) sqlStmt() {}

// WhereExpr is a boolean predicate over a row.
type WhereExpr interface{ whereExpr() }

// AndExpr / OrExpr / NotExpr combine predicates.
type AndExpr struct{ L, R WhereExpr }
type OrExpr struct{ L, R WhereExpr }
type NotExpr struct{ X WhereExpr }

// CmpExpr compares two operands with Op in {=, !=, <>, <, <=, >, >=}.
type CmpExpr struct {
	Op   string
	L, R Operand
}

// LikeExpr is `operand LIKE 'pattern'` with % (any run) and _ (any char).
type LikeExpr struct {
	X       Operand
	Pattern string
}

// InExpr is `operand IN (lit, lit, ...)`.
type InExpr struct {
	X    Operand
	Vals []Value
}

// BetweenExpr is `operand BETWEEN lo AND hi` (inclusive).
type BetweenExpr struct {
	X      Operand
	Lo, Hi Value
}

func (*AndExpr) whereExpr()     {}
func (*OrExpr) whereExpr()      {}
func (*NotExpr) whereExpr()     {}
func (*CmpExpr) whereExpr()     {}
func (*LikeExpr) whereExpr()    {}
func (*InExpr) whereExpr()      {}
func (*BetweenExpr) whereExpr() {}

// Operand is either a column reference or a literal. The distinction is what
// makes tautology injection work: in "id='1' OR '1'='1'" the second
// comparison is literal-vs-literal and holds for every row.
type Operand struct {
	IsColumn bool
	Column   string
	Lit      Value
}

type parser struct {
	toks []token
	i    int
}

// Parse parses one SQL statement.
func Parse(query string) (Stmt, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	// Allow one trailing semicolon, then require EOF.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("trailing input %q", p.peek().text)
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s (near offset %d)", ErrSyntax, fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != kw {
		return fmt.Errorf("%w: expected %q, got %q (near offset %d)", ErrSyntax, kw, t.text, t.pos)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("%w: expected %q, got %q (near offset %d)", ErrSyntax, sym, t.text, t.pos)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("%w: expected identifier, got %q (near offset %d)", ErrSyntax, t.text, t.pos)
	}
	return t.text, nil
}

func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errorf("expected statement keyword")
	}
	switch t.text {
	case "begin", "commit", "rollback":
		p.next()
		// Optional noise words: BEGIN TRANSACTION / COMMIT WORK.
		if p.peekKeyword("transaction") || p.peekKeyword("work") {
			p.next()
		}
		return &txStmt{kind: t.text}, nil
	case "create":
		return p.createStmt()
	case "insert":
		return p.insertStmt()
	case "select":
		return p.selectStmt()
	case "update":
		return p.updateStmt()
	case "delete":
		return p.deleteStmt()
	default:
		return nil, p.errorf("unknown statement %q", t.text)
	}
}

func (p *parser) createStmt() (Stmt, error) {
	p.next() // create
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []Column
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		ctype, err := p.ident()
		if err != nil {
			return nil, err
		}
		var typ Type
		switch ctype {
		case "int", "integer", "bigint":
			typ = TInt
		case "text", "varchar", "char":
			typ = TText
		default:
			return nil, p.errorf("unknown column type %q", ctype)
		}
		cols = append(cols, Column{Name: cname, Type: typ})
		t := p.next()
		if t.kind == tokSymbol && t.text == "," {
			continue
		}
		if t.kind == tokSymbol && t.text == ")" {
			break
		}
		return nil, p.errorf("expected ',' or ')' in column list")
	}
	return &CreateStmt{Table: name, Cols: cols}, nil
}

func (p *parser) insertStmt() (Stmt, error) {
	p.next() // insert
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	var rows [][]Value
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			t := p.next()
			if t.kind == tokSymbol && t.text == "," {
				continue
			}
			if t.kind == tokSymbol && t.text == ")" {
				break
			}
			return nil, p.errorf("expected ',' or ')' in value list")
		}
		rows = append(rows, row)
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	return &InsertStmt{Table: name, Rows: rows}, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	p.next() // select
	s := &SelectStmt{Limit: -1}
	if t := p.peek(); t.kind == tokSymbol && t.text == "*" {
		p.next()
		s.Star = true
	} else {
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			s.Items = append(s.Items, item)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Table = name

	if p.peekKeyword("where") {
		p.next()
		w, err := p.whereExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.peekKeyword("group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.GroupBy = col
	}
	if p.peekKeyword("order") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.OrderBy = col
		if p.peekKeyword("desc") {
			p.next()
			s.OrderDesc = true
		} else if p.peekKeyword("asc") {
			p.next()
		}
	}
	if p.peekKeyword("limit") {
		p.next()
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errorf("expected number after LIMIT")
		}
		n, err := intLiteral(t, 0)
		if err != nil {
			return nil, err
		}
		s.Limit = int(n)
	}
	if p.peekKeyword("union") {
		p.next()
		if p.peekKeyword("all") {
			p.next()
			s.UnionAll = true
		}
		if !p.peekKeyword("select") {
			return nil, p.errorf("expected SELECT after UNION")
		}
		rest, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		s.Union = rest.(*SelectStmt)
	}
	return s, nil
}

func (p *parser) updateStmt() (Stmt, error) {
	p.next() // update
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	s := &UpdateStmt{Table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		s.Sets = append(s.Sets, SetClause{Column: col, Value: v})
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if p.peekKeyword("where") {
		p.next()
		w, err := p.whereExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	p.next() // delete
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &DeleteStmt{Table: name}
	if p.peekKeyword("where") {
		p.next()
		w, err := p.whereExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == kw
}

// whereExpr parses OR-expressions (lowest precedence).
func (p *parser) whereExpr() (WhereExpr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("or") {
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &OrExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (WhereExpr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("and") {
		p.next()
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &AndExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (WhereExpr, error) {
	if p.peekKeyword("not") {
		p.next()
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &NotExpr{X: x}, nil
	}
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.next()
		x, err := p.whereExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return p.comparison()
}

// selectItem parses one projection entry: col, agg(col), or count(*).
func (p *parser) selectItem() (SelectItem, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return SelectItem{}, p.errorf("expected column or aggregate")
	}
	if fn, ok := aggNames[t.text]; ok {
		// Lookahead for '(' — an identifier named like an aggregate is
		// still a valid column when no parenthesis follows.
		if p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			p.next() // fn
			p.next() // (
			if fn == AggCount && p.peek().kind == tokSymbol && p.peek().text == "*" {
				p.next()
				if err := p.expectSymbol(")"); err != nil {
					return SelectItem{}, err
				}
				return SelectItem{Agg: AggCountStar}, nil
			}
			col, err := p.ident()
			if err != nil {
				return SelectItem{}, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return SelectItem{}, err
			}
			return SelectItem{Agg: fn, Column: col}, nil
		}
	}
	p.next()
	return SelectItem{Column: t.text}, nil
}

func (p *parser) comparison() (WhereExpr, error) {
	l, err := p.operand()
	if err != nil {
		return nil, err
	}
	if p.peekKeyword("like") {
		p.next()
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		if v.Type != TText || v.Null {
			return nil, p.errorf("LIKE needs a string pattern")
		}
		return &LikeExpr{X: l, Pattern: v.Text}, nil
	}
	if p.peekKeyword("in") {
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var vals []Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			t := p.next()
			if t.kind == tokSymbol && t.text == "," {
				continue
			}
			if t.kind == tokSymbol && t.text == ")" {
				break
			}
			return nil, p.errorf("expected ',' or ')' in IN list")
		}
		return &InExpr{X: l, Vals: vals}, nil
	}
	if p.peekKeyword("between") {
		p.next()
		lo, err := p.literal()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: l, Lo: lo, Hi: hi}, nil
	}
	t := p.next()
	if t.kind != tokSymbol {
		return nil, fmt.Errorf("%w: expected comparison operator, got %q (near offset %d)", ErrSyntax, t.text, t.pos)
	}
	switch t.text {
	case "=", "!=", "<>", "<", "<=", ">", ">=":
	default:
		return nil, fmt.Errorf("%w: unknown comparison operator %q (near offset %d)", ErrSyntax, t.text, t.pos)
	}
	r, err := p.operand()
	if err != nil {
		return nil, err
	}
	return &CmpExpr{Op: t.text, L: l, R: r}, nil
}

func (p *parser) operand() (Operand, error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		// Keywords cannot be bare operands; anything else is a column name.
		switch t.text {
		case "and", "or", "not", "where", "order", "limit", "null":
			if t.text == "null" {
				p.next()
				return Operand{Lit: NullVal()}, nil
			}
			return Operand{}, p.errorf("expected operand, got keyword %q", t.text)
		}
		p.next()
		return Operand{IsColumn: true, Column: t.text}, nil
	case tokNumber, tokString:
		v, err := p.literal()
		if err != nil {
			return Operand{}, err
		}
		return Operand{Lit: v}, nil
	default:
		return Operand{}, p.errorf("expected operand, got %q", t.text)
	}
}

func (p *parser) literal() (Value, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		n, err := intLiteral(t, 64)
		if err != nil {
			return Value{}, err
		}
		return IntVal(n), nil
	case tokString:
		return TextVal(t.text), nil
	case tokIdent:
		if t.text == "null" {
			return NullVal(), nil
		}
		return Value{}, fmt.Errorf("%w: expected literal, got identifier %q (near offset %d)", ErrSyntax, t.text, t.pos)
	default:
		return Value{}, fmt.Errorf("%w: expected literal, got %q (near offset %d)", ErrSyntax, t.text, t.pos)
	}
}

// intLiteral reads a number token (an optional '-' and decimal digits, as
// lex cuts it) into an integer of bitSize bits (0 for int). A value out of
// that range is a syntax error.
func intLiteral(t token, bitSize int) (int64, error) {
	n, err := strconv.ParseInt(t.text, 10, bitSize)
	if err != nil {
		return 0, fmt.Errorf("%w: bad number %q (near offset %d)", ErrSyntax, t.text, t.pos)
	}
	return n, nil
}
