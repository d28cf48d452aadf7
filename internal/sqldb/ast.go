package sqldb

import (
	"fmt"
	"strings"
)

// Statement is a parsed SQL statement. The concrete types are CreateTable,
// CreateIndex, AlterTableAdd, Insert, Select, Update, Delete, and DropTable.
//
// Statements are plain data: the time-travel layer (internal/ttdb) rewrites
// them before execution. Use Clone before mutating a shared statement.
type Statement interface {
	// String renders the statement back to SQL text.
	String() string
	// Clone returns a deep copy of the statement.
	Clone() Statement
	stmt()
}

// Expr is a SQL expression appearing in WHERE clauses, SET lists, select
// lists, and VALUES lists.
type Expr interface {
	// String renders the expression back to SQL text.
	String() string
	// CloneExpr returns a deep copy of the expression.
	CloneExpr() Expr
	expr()
}

// ColumnDef describes one column in a CREATE TABLE or ALTER TABLE statement.
type ColumnDef struct {
	Name    string
	Type    Kind // KindInt, KindText or KindBool
	NotNull bool
	Default *Literal // nil when no default; NULL default otherwise
}

// String renders the column definition.
func (c ColumnDef) String() string {
	var b strings.Builder
	b.WriteString(c.Name)
	b.WriteString(" ")
	b.WriteString(c.Type.String())
	if c.NotNull {
		b.WriteString(" NOT NULL")
	}
	if c.Default != nil {
		b.WriteString(" DEFAULT ")
		b.WriteString(c.Default.String())
	}
	return b.String()
}

// UniqueConstraint is a PRIMARY KEY or UNIQUE constraint over one or more
// columns. The time-travel layer extends these with version columns so that
// multiple versions of a row can coexist (paper §6).
type UniqueConstraint struct {
	Name    string // optional constraint name
	Columns []string
	Primary bool // true for PRIMARY KEY
}

// String renders the constraint.
func (u UniqueConstraint) String() string {
	kw := "UNIQUE"
	if u.Primary {
		kw = "PRIMARY KEY"
	}
	return fmt.Sprintf("%s (%s)", kw, strings.Join(u.Columns, ", "))
}

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Table       string
	IfNotExists bool
	Columns     []ColumnDef
	Uniques     []UniqueConstraint
}

func (*CreateTable) stmt() {}

// String renders the statement back to SQL.
func (s *CreateTable) String() string {
	var parts []string
	for _, c := range s.Columns {
		parts = append(parts, c.String())
	}
	for _, u := range s.Uniques {
		parts = append(parts, u.String())
	}
	ine := ""
	if s.IfNotExists {
		ine = "IF NOT EXISTS "
	}
	return fmt.Sprintf("CREATE TABLE %s%s (%s)", ine, s.Table, strings.Join(parts, ", "))
}

// Clone returns a deep copy.
func (s *CreateTable) Clone() Statement {
	c := *s
	c.Columns = make([]ColumnDef, len(s.Columns))
	for i, col := range s.Columns {
		c.Columns[i] = col
		if col.Default != nil {
			d := *col.Default
			c.Columns[i].Default = &d
		}
	}
	c.Uniques = make([]UniqueConstraint, len(s.Uniques))
	for i, u := range s.Uniques {
		c.Uniques[i] = u
		c.Uniques[i].Columns = append([]string(nil), u.Columns...)
	}
	return &c
}

// CreateIndex is a CREATE INDEX statement: an index on Column, optionally
// with a second column (`CREATE INDEX i ON t (c, e)`) that each key's
// postings are kept in descending order of (colIndex, schema.go).
type CreateIndex struct {
	Name        string
	Table       string
	Column      string
	Suffix      string // "" for a plain single-column index
	IfNotExists bool
}

func (*CreateIndex) stmt() {}

// String renders the statement back to SQL.
func (s *CreateIndex) String() string {
	ine := ""
	if s.IfNotExists {
		ine = "IF NOT EXISTS "
	}
	cols := s.Column
	if s.Suffix != "" {
		cols += ", " + s.Suffix
	}
	return fmt.Sprintf("CREATE INDEX %s%s ON %s (%s)", ine, s.Name, s.Table, cols)
}

// Clone returns a deep copy.
func (s *CreateIndex) Clone() Statement { c := *s; return &c }

// AlterTableAdd is an ALTER TABLE ... ADD COLUMN statement.
type AlterTableAdd struct {
	Table  string
	Column ColumnDef
}

func (*AlterTableAdd) stmt() {}

// String renders the statement back to SQL.
func (s *AlterTableAdd) String() string {
	return fmt.Sprintf("ALTER TABLE %s ADD COLUMN %s", s.Table, s.Column.String())
}

// Clone returns a deep copy.
func (s *AlterTableAdd) Clone() Statement {
	c := *s
	if s.Column.Default != nil {
		d := *s.Column.Default
		c.Column.Default = &d
	}
	return &c
}

// DropTable is a DROP TABLE statement.
type DropTable struct {
	Table    string
	IfExists bool
}

func (*DropTable) stmt() {}

// String renders the statement back to SQL.
func (s *DropTable) String() string {
	ie := ""
	if s.IfExists {
		ie = "IF EXISTS "
	}
	return "DROP TABLE " + ie + s.Table
}

// Clone returns a deep copy.
func (s *DropTable) Clone() Statement { c := *s; return &c }

// Insert is an INSERT statement.
type Insert struct {
	Table     string
	Columns   []string // empty means all table columns in order
	Rows      [][]Expr // one or more VALUES tuples
	Returning []string // optional RETURNING column list
}

func (*Insert) stmt() {}

// String renders the statement back to SQL.
func (s *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(s.Table)
	if len(s.Columns) > 0 {
		b.WriteString(" (")
		b.WriteString(strings.Join(s.Columns, ", "))
		b.WriteString(")")
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	if len(s.Returning) > 0 {
		b.WriteString(" RETURNING ")
		b.WriteString(strings.Join(s.Returning, ", "))
	}
	return b.String()
}

// Clone returns a deep copy.
func (s *Insert) Clone() Statement {
	c := *s
	c.Columns = append([]string(nil), s.Columns...)
	c.Returning = append([]string(nil), s.Returning...)
	c.Rows = make([][]Expr, len(s.Rows))
	for i, row := range s.Rows {
		c.Rows[i] = cloneExprs(row)
	}
	return &c
}

// SelectItem is one entry in a SELECT list: an expression with an optional
// alias. A bare `*` is represented by Star=true.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// String renders the item.
func (it SelectItem) String() string {
	if it.Star {
		return "*"
	}
	if it.Alias != "" {
		return it.Expr.String() + " AS " + it.Alias
	}
	return it.Expr.String()
}

// OrderBy is one ORDER BY term.
type OrderBy struct {
	Expr Expr
	Desc bool
}

// String renders the term.
func (o OrderBy) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// Select is a SELECT statement over a single table.
type Select struct {
	Items    []SelectItem
	Table    string // empty for table-less SELECT (e.g. SELECT 1)
	Where    Expr   // nil when absent
	OrderBy  []OrderBy
	Limit    Expr // nil when absent
	Offset   Expr // nil when absent
	Distinct bool
}

func (*Select) stmt() {}

// String renders the statement back to SQL.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	if s.Table != "" {
		b.WriteString(" FROM ")
		b.WriteString(s.Table)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT ")
		b.WriteString(s.Limit.String())
	}
	if s.Offset != nil {
		b.WriteString(" OFFSET ")
		b.WriteString(s.Offset.String())
	}
	return b.String()
}

// Clone returns a deep copy.
func (s *Select) Clone() Statement {
	c := *s
	c.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		c.Items[i] = it
		if it.Expr != nil {
			c.Items[i].Expr = it.Expr.CloneExpr()
		}
	}
	if s.Where != nil {
		c.Where = s.Where.CloneExpr()
	}
	c.OrderBy = make([]OrderBy, len(s.OrderBy))
	for i, o := range s.OrderBy {
		c.OrderBy[i] = OrderBy{Expr: o.Expr.CloneExpr(), Desc: o.Desc}
	}
	if s.Limit != nil {
		c.Limit = s.Limit.CloneExpr()
	}
	if s.Offset != nil {
		c.Offset = s.Offset.CloneExpr()
	}
	return &c
}

// Assignment is one SET column = expr pair in an UPDATE.
type Assignment struct {
	Column string
	Expr   Expr
}

// String renders the assignment.
func (a Assignment) String() string { return a.Column + " = " + a.Expr.String() }

// Update is an UPDATE statement. With Keep it is a versioned update
// (`UPDATE t SET ... WHERE ... KEEP (c = e, ...)`): every matched row's
// before-image is also kept, as a new row with Keep's assignments
// applied, in the same statement. SET and Keep expressions both read the
// before-image. A RETURNING column spelled OLD.c (OldPrefix + c) returns
// the before-image's c.
type Update struct {
	Table     string
	Set       []Assignment
	Where     Expr         // nil when absent
	Keep      []Assignment // empty for a plain update
	Returning []string
}

// OldPrefix prefixes a RETURNING column that reads the before-image.
const OldPrefix = "OLD."

func (*Update) stmt() {}

// writeAssignments renders a comma-separated assignment list.
func writeAssignments(b *strings.Builder, as []Assignment) {
	for i, a := range as {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
}

// String renders the statement back to SQL.
func (s *Update) String() string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(s.Table)
	b.WriteString(" SET ")
	writeAssignments(&b, s.Set)
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.Keep) > 0 {
		b.WriteString(" KEEP (")
		writeAssignments(&b, s.Keep)
		b.WriteString(")")
	}
	if len(s.Returning) > 0 {
		b.WriteString(" RETURNING ")
		b.WriteString(strings.Join(s.Returning, ", "))
	}
	return b.String()
}

// Clone returns a deep copy.
func (s *Update) Clone() Statement {
	c := *s
	c.Set = cloneAssignments(s.Set)
	c.Keep = cloneAssignments(s.Keep)
	if s.Where != nil {
		c.Where = s.Where.CloneExpr()
	}
	c.Returning = append([]string(nil), s.Returning...)
	return &c
}

func cloneAssignments(as []Assignment) []Assignment {
	out := make([]Assignment, len(as))
	for i, a := range as {
		out[i] = Assignment{Column: a.Column, Expr: a.Expr.CloneExpr()}
	}
	return out
}

// Delete is a DELETE statement.
type Delete struct {
	Table     string
	Where     Expr // nil when absent
	Returning []string
}

func (*Delete) stmt() {}

// String renders the statement back to SQL.
func (s *Delete) String() string {
	var b strings.Builder
	b.WriteString("DELETE FROM ")
	b.WriteString(s.Table)
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.Returning) > 0 {
		b.WriteString(" RETURNING ")
		b.WriteString(strings.Join(s.Returning, ", "))
	}
	return b.String()
}

// Clone returns a deep copy.
func (s *Delete) Clone() Statement {
	c := *s
	if s.Where != nil {
		c.Where = s.Where.CloneExpr()
	}
	c.Returning = append([]string(nil), s.Returning...)
	return &c
}

//
// Expressions
//

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators, in increasing precedence groups.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLike
	OpAdd
	OpSub
	OpConcat
	OpMul
	OpDiv
	OpMod
)

var binOpNames = map[BinOp]string{
	OpOr: "OR", OpAnd: "AND", OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpLike: "LIKE", OpAdd: "+", OpSub: "-",
	OpConcat: "||", OpMul: "*", OpDiv: "/", OpMod: "%",
}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// BinaryExpr applies a binary operator to two operands.
type BinaryExpr struct {
	Op          BinOp
	Left, Right Expr
}

func (*BinaryExpr) expr() {}

// String renders the expression with full parenthesization.
func (e *BinaryExpr) String() string {
	return "(" + e.Left.String() + " " + e.Op.String() + " " + e.Right.String() + ")"
}

// CloneExpr returns a deep copy.
func (e *BinaryExpr) CloneExpr() Expr {
	return &BinaryExpr{Op: e.Op, Left: e.Left.CloneExpr(), Right: e.Right.CloneExpr()}
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	OpNot UnOp = iota
	OpNeg
)

// UnaryExpr applies a unary operator to an operand.
type UnaryExpr struct {
	Op      UnOp
	Operand Expr
}

func (*UnaryExpr) expr() {}

// String renders the expression.
func (e *UnaryExpr) String() string {
	if e.Op == OpNot {
		return "(NOT " + e.Operand.String() + ")"
	}
	return "(-" + e.Operand.String() + ")"
}

// CloneExpr returns a deep copy.
func (e *UnaryExpr) CloneExpr() Expr {
	return &UnaryExpr{Op: e.Op, Operand: e.Operand.CloneExpr()}
}

// ColumnRef names a column of the queried table.
type ColumnRef struct {
	Name string
}

func (*ColumnRef) expr() {}

// String renders the reference.
func (e *ColumnRef) String() string { return e.Name }

// CloneExpr returns a copy.
func (e *ColumnRef) CloneExpr() Expr { c := *e; return &c }

// Literal is a constant value.
type Literal struct {
	Value Value
}

func (*Literal) expr() {}

// String renders the literal.
func (e *Literal) String() string { return e.Value.String() }

// CloneExpr returns a copy.
func (e *Literal) CloneExpr() Expr { c := *e; return &c }

// Lit returns a literal expression for v.
func Lit(v Value) *Literal { return &Literal{Value: v} }

// Param is a positional `?` parameter (0-based Index assigned by the
// parser, left to right).
type Param struct {
	Index int
}

func (*Param) expr() {}

// String renders the parameter placeholder.
func (e *Param) String() string { return "?" }

// CloneExpr returns a copy.
func (e *Param) CloneExpr() Expr { c := *e; return &c }

// InExpr is `expr [NOT] IN (e1, e2, ...)`.
type InExpr struct {
	Expr Expr
	List []Expr
	Not  bool
}

func (*InExpr) expr() {}

// String renders the expression.
func (e *InExpr) String() string {
	var b strings.Builder
	b.WriteString("(")
	b.WriteString(e.Expr.String())
	if e.Not {
		b.WriteString(" NOT")
	}
	b.WriteString(" IN (")
	for i, item := range e.List {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(item.String())
	}
	b.WriteString("))")
	return b.String()
}

// CloneExpr returns a deep copy.
func (e *InExpr) CloneExpr() Expr {
	return &InExpr{Expr: e.Expr.CloneExpr(), List: cloneExprs(e.List), Not: e.Not}
}

// IsNullExpr is `expr IS [NOT] NULL`.
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

func (*IsNullExpr) expr() {}

// String renders the expression.
func (e *IsNullExpr) String() string {
	if e.Not {
		return "(" + e.Expr.String() + " IS NOT NULL)"
	}
	return "(" + e.Expr.String() + " IS NULL)"
}

// CloneExpr returns a deep copy.
func (e *IsNullExpr) CloneExpr() Expr {
	return &IsNullExpr{Expr: e.Expr.CloneExpr(), Not: e.Not}
}

// FuncCall is a function or aggregate call. Star is set for COUNT(*).
type FuncCall struct {
	Name string // upper-cased by the parser
	Args []Expr
	Star bool
}

func (*FuncCall) expr() {}

// String renders the call.
func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	var args []string
	for _, a := range e.Args {
		args = append(args, a.String())
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

// CloneExpr returns a deep copy.
func (e *FuncCall) CloneExpr() Expr {
	return &FuncCall{Name: e.Name, Args: cloneExprs(e.Args), Star: e.Star}
}

// IsAggregate reports whether the call is one of the supported aggregate
// functions (COUNT, SUM, MIN, MAX, AVG).
func (e *FuncCall) IsAggregate() bool {
	switch e.Name {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

func cloneExprs(in []Expr) []Expr {
	if in == nil {
		return nil
	}
	out := make([]Expr, len(in))
	for i, e := range in {
		out[i] = e.CloneExpr()
	}
	return out
}

// Col returns a column reference expression.
func Col(name string) *ColumnRef { return &ColumnRef{Name: name} }

// Eq returns the expression `col = value` for literal v.
func Eq(col string, v Value) Expr {
	return &BinaryExpr{Op: OpEq, Left: Col(col), Right: Lit(v)}
}

// And conjoins expressions, dropping nils. It returns nil when all inputs
// are nil.
func And(exprs ...Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: OpAnd, Left: out, Right: e}
		}
	}
	return out
}
