package sqldb

import (
	"fmt"
	"strings"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow one trailing semicolon.
	if p.peek().kind == tokOp && p.peek().text == ";" {
		p.advance()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected trailing input starting with %q", p.peek().text)
	}
	return stmt, nil
}

// MustParse parses src and panics on error. It is intended for statically
// known statements in application schemas and tests.
func MustParse(src string) Statement {
	stmt, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return stmt
}

type parser struct {
	toks      []token
	i         int
	src       string
	numParams int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error near offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errorf("expected %s, got %q", kw, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q, got %q", op, p.peek().text)
	}
	return nil
}

// parseIdent accepts an identifier; non-reserved usage of keywords as
// identifiers is not supported.
func (p *parser) parseIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "ALTER":
		return p.parseAlter()
	case "DROP":
		return p.parseDrop()
	default:
		return nil, p.errorf("unsupported statement %q", t.text)
	}
}

func (p *parser) parseSelect() (Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &Select{}
	s.Distinct = p.acceptKeyword("DISTINCT")
	for {
		if p.acceptOp("*") {
			s.Items = append(s.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.peek().kind == tokIdent {
				item.Alias = p.advance().text
			}
			s.Items = append(s.Items, item)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		s.Table = name
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
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
			o := OrderBy{Expr: e}
			if p.acceptKeyword("DESC") {
				o.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, o)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Offset = e
	}
	return s, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	s := &Insert{Table: name}
	if p.acceptOp("(") {
		for {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	ret, err := p.parseReturning()
	if err != nil {
		return nil, err
	}
	s.Returning = ret
	return s, nil
}

func (p *parser) parseReturning() ([]string, error) {
	if !p.acceptKeyword("RETURNING") {
		return nil, nil
	}
	var cols []string
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if !p.acceptOp(",") {
			return cols, nil
		}
	}
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	s := &Update{Table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Set = append(s.Set, Assignment{Column: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	ret, err := p.parseReturning()
	if err != nil {
		return nil, err
	}
	s.Returning = ret
	return s, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	s := &Delete{Table: name}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	ret, err := p.parseReturning()
	if err != nil {
		return nil, err
	}
	s.Returning = ret
	return s, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("UNIQUE"):
		// CREATE UNIQUE INDEX is accepted and treated as a plain index;
		// uniqueness is declared in CREATE TABLE.
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex()
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseIfNotExists() (bool, error) {
	if !p.acceptKeyword("IF") {
		return false, nil
	}
	if !p.acceptKeyword("NOT") {
		return false, p.errorf("expected NOT EXISTS after IF")
	}
	if err := p.expectKeyword("EXISTS"); err != nil {
		return false, err
	}
	return true, nil
}

func (p *parser) parseCreateTable() (Statement, error) {
	ine, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	s := &CreateTable{Table: name, IfNotExists: ine}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tokKeyword && (t.text == "PRIMARY" || t.text == "UNIQUE" || t.text == "CONSTRAINT"):
			u, err := p.parseTableConstraint()
			if err != nil {
				return nil, err
			}
			s.Uniques = append(s.Uniques, u)
		default:
			col, pk, uniq, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			if pk {
				s.Uniques = append(s.Uniques, UniqueConstraint{Columns: []string{col.Name}, Primary: true})
			}
			if uniq {
				s.Uniques = append(s.Uniques, UniqueConstraint{Columns: []string{col.Name}})
			}
			s.Columns = append(s.Columns, col)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) parseTableConstraint() (UniqueConstraint, error) {
	var u UniqueConstraint
	if p.acceptKeyword("CONSTRAINT") {
		name, err := p.parseIdent()
		if err != nil {
			return u, err
		}
		u.Name = name
	}
	switch {
	case p.acceptKeyword("PRIMARY"):
		if err := p.expectKeyword("KEY"); err != nil {
			return u, err
		}
		u.Primary = true
	case p.acceptKeyword("UNIQUE"):
	default:
		return u, p.errorf("expected PRIMARY KEY or UNIQUE constraint")
	}
	if err := p.expectOp("("); err != nil {
		return u, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return u, err
		}
		u.Columns = append(u.Columns, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return u, err
	}
	return u, nil
}

func (p *parser) parseColumnDef() (col ColumnDef, pk, uniq bool, err error) {
	name, err := p.parseIdent()
	if err != nil {
		return col, false, false, err
	}
	col.Name = name
	t := p.peek()
	if t.kind != tokKeyword {
		return col, false, false, p.errorf("expected column type, got %q", t.text)
	}
	switch t.text {
	case "INTEGER", "INT":
		col.Type = KindInt
		p.advance()
	case "TEXT":
		col.Type = KindText
		p.advance()
	case "VARCHAR":
		col.Type = KindText
		p.advance()
		// Optional length: VARCHAR(255). The length is parsed and ignored.
		if p.acceptOp("(") {
			if p.peek().kind != tokInt {
				return col, false, false, p.errorf("expected length in VARCHAR(n)")
			}
			p.advance()
			if err := p.expectOp(")"); err != nil {
				return col, false, false, err
			}
		}
	case "BOOLEAN", "BOOL":
		col.Type = KindBool
		p.advance()
	default:
		return col, false, false, p.errorf("unsupported column type %q", t.text)
	}
	for {
		switch {
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return col, false, false, err
			}
			col.NotNull = true
		case p.acceptKeyword("DEFAULT"):
			e, err := p.parsePrimary()
			if err != nil {
				return col, false, false, err
			}
			lit, ok := e.(*Literal)
			if !ok {
				return col, false, false, p.errorf("DEFAULT value must be a literal")
			}
			col.Default = lit
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return col, false, false, err
			}
			pk = true
		case p.acceptKeyword("UNIQUE"):
			uniq = true
		default:
			return col, pk, uniq, nil
		}
	}
}

func (p *parser) parseCreateIndex() (Statement, error) {
	ine, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	col, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	suffix := ""
	if p.acceptOp(",") {
		if suffix, err = p.parseIdent(); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Column: col, Suffix: suffix, IfNotExists: ine}, nil
}

func (p *parser) parseAlter() (Statement, error) {
	if err := p.expectKeyword("ALTER"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ADD"); err != nil {
		return nil, err
	}
	p.acceptKeyword("COLUMN")
	col, _, _, err := p.parseColumnDef()
	if err != nil {
		return nil, err
	}
	return &AlterTableAdd{Table: name, Column: col}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ie := false
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ie = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Table: name, IfExists: ie}, nil
}

//
// Expression parsing (precedence climbing).
//
// Precedence (low to high): OR, AND, NOT, comparison/IN/LIKE/IS,
// additive (+ - ||), multiplicative (* / %), unary minus, primary.
//

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNot, Operand: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op BinOp
		switch {
		case t.kind == tokOp && t.text == "=":
			op = OpEq
		case t.kind == tokOp && t.text == "!=":
			op = OpNe
		case t.kind == tokOp && t.text == "<":
			op = OpLt
		case t.kind == tokOp && t.text == "<=":
			op = OpLe
		case t.kind == tokOp && t.text == ">":
			op = OpGt
		case t.kind == tokOp && t.text == ">=":
			op = OpGe
		case t.kind == tokKeyword && t.text == "LIKE":
			op = OpLike
		case t.kind == tokKeyword && t.text == "IS":
			p.advance()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{Expr: left, Not: not}
			continue
		case t.kind == tokKeyword && t.text == "IN":
			p.advance()
			in, err := p.parseInList(left, false)
			if err != nil {
				return nil, err
			}
			left = in
			continue
		case t.kind == tokKeyword && t.text == "BETWEEN":
			p.advance()
			rng, err := p.parseBetween(left)
			if err != nil {
				return nil, err
			}
			left = rng
			continue
		case t.kind == tokKeyword && t.text == "NOT":
			// Lookahead for NOT IN / NOT LIKE.
			if p.i+1 < len(p.toks) && p.toks[p.i+1].kind == tokKeyword {
				switch p.toks[p.i+1].text {
				case "IN":
					p.advance()
					p.advance()
					in, err := p.parseInList(left, true)
					if err != nil {
						return nil, err
					}
					left = in
					continue
				case "LIKE":
					p.advance()
					p.advance()
					right, err := p.parseAdditive()
					if err != nil {
						return nil, err
					}
					left = &UnaryExpr{Op: OpNot, Operand: &BinaryExpr{Op: OpLike, Left: left, Right: right}}
					continue
				case "BETWEEN":
					p.advance()
					p.advance()
					rng, err := p.parseBetween(left)
					if err != nil {
						return nil, err
					}
					left = &UnaryExpr{Op: OpNot, Operand: rng}
					continue
				}
			}
			return left, nil
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

// parseBetween desugars `expr BETWEEN lo AND hi` into
// `(expr >= lo AND expr <= hi)` — the planner then serves it as an
// ordered index range like any other pair of bound conjuncts. The bounds
// parse at additive precedence so the separating AND is not consumed as
// a conjunction.
func (p *parser) parseBetween(left Expr) (Expr, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &BinaryExpr{
		Op:    OpAnd,
		Left:  &BinaryExpr{Op: OpGe, Left: left, Right: lo},
		Right: &BinaryExpr{Op: OpLe, Left: left.CloneExpr(), Right: hi},
	}, nil
}

func (p *parser) parseInList(left Expr, not bool) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	in := &InExpr{Expr: left, Not: not}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op BinOp
		switch {
		case t.kind == tokOp && t.text == "+":
			op = OpAdd
		case t.kind == tokOp && t.text == "-":
			op = OpSub
		case t.kind == tokOp && t.text == "||":
			op = OpConcat
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op BinOp
		switch {
		case t.kind == tokOp && t.text == "*":
			op = OpMul
		case t.kind == tokOp && t.text == "/":
			op = OpDiv
		case t.kind == tokOp && t.text == "%":
			op = OpMod
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNeg, Operand: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		return Lit(Int(t.val)), nil
	case tokString:
		p.advance()
		return Lit(Text(t.str)), nil
	case tokParam:
		p.advance()
		e := &Param{Index: p.numParams}
		p.numParams++
		return e, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return Lit(Null()), nil
		case "TRUE":
			p.advance()
			return Lit(Bool(true)), nil
		case "FALSE":
			p.advance()
			return Lit(Bool(false)), nil
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.advance()
		// Function call?
		if p.acceptOp("(") {
			fc := &FuncCall{Name: strings.ToUpper(t.text)}
			if p.acceptOp("*") {
				fc.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.acceptOp(")") {
				return fc, nil
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		return &ColumnRef{Name: t.text}, nil
	case tokOp:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}
