package sqldb

import (
	"math/rand"
	"reflect"
	"testing"
)

// Differential test of the compiled evaluator (plan.go) against the
// tree-walking oracle (eval_oracle_test.go). One byte string drives one
// case — a small random table, a parameter vector, and a random row
// expression, aggregate SELECT, LIMIT/OFFSET SELECT, table-less SELECT or
// SELECT whose WHERE is shaped like the time-travel layer's — so the
// seeded property test and the fuzz target share a generator and the
// property test's cases are the fuzz target's seed corpus.

// oracleGen draws structure from a byte string; an exhausted string
// yields zeros, so every input is a complete case.
type oracleGen struct {
	data []byte
	pos  int
}

func (g *oracleGen) n(limit int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b) % limit
}

var (
	oracleTexts   = []string{"", "abc", "10", " 7", "a%c", "A_c", "-3", "x'y"}
	oracleColumns = []string{"a", "b", "c", "d", "a", "b", "d", "a", "d", "zz"} // zz does not exist
	oracleScalars = []string{"LOWER", "UPPER", "LENGTH", "ABS", "COALESCE", "SUBSTR", "COALESCE", "ABS", "NOPE"}
	oracleAggs    = []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
	oracleBinOps  = []BinOp{OpOr, OpAnd, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike,
		OpAdd, OpSub, OpConcat, OpMul, OpDiv, OpMod}
	oracleCmpOps = []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
)

// value draws a constant: NULL, small integers around zero, numeric and
// pattern-bearing text, booleans.
func (g *oracleGen) value() Value {
	switch g.n(8) {
	case 0:
		return Null()
	case 1, 2, 3:
		return Int(int64(g.n(7)) - 3)
	case 4, 5:
		return Text(oracleTexts[g.n(len(oracleTexts))])
	case 6:
		return Bool(g.n(2) == 0)
	default:
		return Int(int64(g.n(200)))
	}
}

// expr draws an expression. cols admits column references (one of them
// unknown); aggs admits aggregate calls, whose arguments are row
// expressions (a nested aggregate is drawn occasionally: it must be
// rejected when a row is evaluated). Parameter indices run one past the
// three the row-level cases supply.
func (g *oracleGen) expr(depth int, cols, aggs bool) Expr {
	if depth <= 0 || g.n(4) == 0 {
		switch g.n(4) {
		case 0:
			if cols {
				return &ColumnRef{Name: oracleColumns[g.n(len(oracleColumns))]}
			}
		case 1:
			return &Param{Index: g.n(4)}
		}
		return &Literal{Value: g.value()}
	}
	switch g.n(10) {
	case 0:
		return &UnaryExpr{Op: UnOp(g.n(2)), Operand: g.expr(depth-1, cols, aggs)}
	case 1:
		in := &InExpr{Expr: g.expr(depth-1, cols, aggs), Not: g.n(2) == 0}
		for i := g.n(4); i >= 0; i-- {
			in.List = append(in.List, g.expr(depth-2, cols, aggs))
		}
		return in
	case 2:
		return &IsNullExpr{Expr: g.expr(depth-1, cols, aggs), Not: g.n(2) == 0}
	case 3:
		fc := &FuncCall{Name: oracleScalars[g.n(len(oracleScalars))]}
		arity := 1
		switch {
		case g.n(6) == 0:
			arity = g.n(4) // mostly wrong
		case fc.Name == "SUBSTR":
			arity = 2 + g.n(2)
		case fc.Name == "COALESCE":
			arity = 1 + g.n(3)
		}
		for ; arity > 0; arity-- {
			fc.Args = append(fc.Args, g.expr(depth-1, cols, aggs))
		}
		return fc
	case 4, 5:
		if aggs {
			return g.aggregate(depth)
		}
	}
	return &BinaryExpr{Op: oracleBinOps[g.n(len(oracleBinOps))],
		Left: g.expr(depth-1, cols, aggs), Right: g.expr(depth-1, cols, aggs)}
}

// conjunction draws a WHERE shaped like the time-travel layer's: an AND
// of 1–6 conjuncts in a random tree shape.
func (g *oracleGen) conjunction() Expr {
	cs := make([]Expr, 1+g.n(6))
	for i := range cs {
		cs[i] = g.conjunct()
	}
	return g.andTree(cs)
}

// conjunct draws `col op ?`, `col op literal` or `? op col`; a constant
// NULL, FALSE or TRUE; one that raises an error (the unknown column, a
// division by zero); or an ordinary drawn expression.
func (g *oracleGen) conjunct() Expr {
	col := &ColumnRef{Name: oracleColumns[g.n(len(oracleColumns))]}
	op := oracleCmpOps[g.n(len(oracleCmpOps))]
	switch g.n(8) {
	case 0, 1:
		return &BinaryExpr{Op: op, Left: col, Right: &Param{Index: g.n(4)}}
	case 2:
		return &BinaryExpr{Op: op, Left: col, Right: &Literal{Value: g.value()}}
	case 3:
		return &BinaryExpr{Op: op, Left: &Param{Index: g.n(4)}, Right: col}
	case 4:
		return &Literal{Value: []Value{Null(), Bool(false), Bool(true)}[g.n(3)]}
	case 5:
		if g.n(2) == 0 {
			return &BinaryExpr{Op: op, Left: &ColumnRef{Name: "zz"}, Right: &Param{Index: g.n(4)}}
		}
		return &BinaryExpr{Op: OpEq, Left: &BinaryExpr{Op: OpDiv, Left: Lit(Int(1)), Right: Lit(Int(0))}, Right: Lit(Int(1))}
	}
	return g.expr(2, true, false)
}

// andTree joins conjuncts, in order, with ANDs split at drawn points.
func (g *oracleGen) andTree(cs []Expr) Expr {
	if len(cs) == 1 {
		return cs[0]
	}
	k := 1 + g.n(len(cs)-1)
	return &BinaryExpr{Op: OpAnd, Left: g.andTree(cs[:k]), Right: g.andTree(cs[k:])}
}

// aggregate draws an aggregate call: COUNT(*), the one-argument forms,
// and the malformed ones (SUM(*), no argument, two arguments).
func (g *oracleGen) aggregate(depth int) Expr {
	fc := &FuncCall{Name: oracleAggs[g.n(len(oracleAggs))]}
	switch g.n(16) {
	case 0, 1:
		fc.Name, fc.Star = "COUNT", true
	case 2:
		fc.Star = true
	case 3:
	case 4:
		fc.Args = []Expr{g.expr(depth-1, true, false), g.expr(depth-1, true, false)}
	default:
		fc.Args = []Expr{g.expr(depth-1, true, g.n(8) == 0)}
	}
	return fc
}

// table builds t(a INTEGER, b TEXT, c BOOLEAN, d INTEGER) with 0..5 drawn
// rows. It carries no index, so the engine scans in slot order exactly as
// the oracle does and both see the same first failing row.
func (g *oracleGen) table(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if _, err := db.Exec("CREATE TABLE t (a INTEGER, b TEXT, c BOOLEAN, d INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := g.n(6); i > 0; i-- {
		row := []Value{Null(), Null(), Null(), Int(int64(g.n(5)) - 1)}
		if g.n(5) > 0 {
			row[0] = Int(int64(g.n(7)) - 3)
		}
		if g.n(5) > 0 {
			row[1] = Text(oracleTexts[g.n(len(oracleTexts))])
		}
		if g.n(5) > 0 {
			row[2] = Bool(g.n(2) == 0)
		}
		if _, err := db.Exec("INSERT INTO t (a, b, c, d) VALUES (?, ?, ?, ?)", row...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sameOutcome fails unless both sides agree on the value and on the
// error text.
func sameOutcome(t *testing.T, what string, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: compiled error %v, oracle error %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: compiled %v, oracle %v", what, got, want)
	}
}

// checkCompiledCase runs the case data encodes through both evaluators.
func checkCompiledCase(t *testing.T, data []byte) {
	g := &oracleGen{data: data}
	db := g.table(t)
	tbl := db.tables["t"]
	mode := g.n(5)

	if mode == 0 {
		// A row expression, against every row and row-less, with three
		// parameters supplied (index 3 is out of range).
		e := g.expr(3, true, false)
		params := []Value{g.value(), g.value(), g.value()}
		ce := exprScope{t: tbl}.compile(e)
		tbl.store.forEachLive(func(slot int, r *row) error {
			got, gotErr := ce(r.vals, params)
			want, wantErr := evalExpr(e, tbl.rowCtx(slot, params))
			sameOutcome(t, e.String(), got, gotErr, want, wantErr)
			return nil
		})
		got, gotErr := exprScope{}.compile(e)(nil, params)
		want, wantErr := evalExpr(e, &evalCtx{params: params})
		sameOutcome(t, "row-less "+e.String(), got, gotErr, want, wantErr)
		return
	}
	var where Expr
	if mode == 4 {
		// The compiled predicate against every row, with three parameters
		// supplied (index 3 is out of range); the SELECT below runs it
		// through the engine.
		where = g.conjunction()
		params := []Value{g.value(), g.value(), g.value()}
		pred := compilePred(tbl, where)
		tbl.store.forEachLive(func(slot int, r *row) error {
			got, gotErr := pred(r.vals, params)
			want, wantErr := evalExpr(where, tbl.rowCtx(slot, params))
			sameOutcome(t, where.String(), got, gotErr, want.IsTrue(), wantErr)
			return nil
		})
	}

	s := &Select{Table: "t"}
	switch mode {
	case 1:
		// An aggregate SELECT: the first item always holds an aggregate;
		// later items may be bare columns or * (both rejected).
		s.Items = []SelectItem{{Expr: g.aggregate(2)}}
		for i := g.n(3); i > 0; i-- {
			if g.n(8) == 0 {
				s.Items = append(s.Items, SelectItem{Star: true})
			} else {
				s.Items = append(s.Items, SelectItem{Expr: g.expr(3, true, true)})
			}
		}
		if g.n(3) > 0 {
			s.Where = g.expr(2, true, false)
		}
	case 2:
		// LIMIT/OFFSET over a row SELECT: parameters (negative values
		// included), literals, and expressions that must be rejected.
		s.Items = []SelectItem{{Star: true}, {Expr: g.expr(1, true, false)}}
		if g.n(2) == 0 {
			s.Where = g.expr(2, true, false)
		}
		s.Limit, s.Offset = g.bound(), g.bound()
	case 3:
		s.Table = ""
		for i := g.n(3); i >= 0; i-- {
			if g.n(8) == 0 {
				s.Items = append(s.Items, SelectItem{Star: true})
			} else {
				s.Items = append(s.Items, SelectItem{Expr: g.expr(3, g.n(4) == 0, g.n(4) == 0)})
			}
		}
		s.Limit, s.Offset = g.bound(), g.bound()
	case 4:
		s.Items = []SelectItem{{Star: true}}
		s.Where = where
	}
	cs := NewCachedStmt(s)
	params := make([]Value, cs.NumParams())
	for i := range params {
		params[i] = g.value()
	}
	got, gotErr := db.ExecCached(cs, params)
	want, wantErr := db.oracleSelect(s, params, mode == 1)
	var gotRows, wantRows any
	if gotErr == nil && wantErr == nil {
		gotRows, wantRows = [2]any{got.Columns, got.Rows}, [2]any{want.Columns, want.Rows}
	}
	sameOutcome(t, s.String(), gotRows, gotErr, wantRows, wantErr)
}

// bound draws a LIMIT or OFFSET expression, or none.
func (g *oracleGen) bound() Expr {
	switch g.n(6) {
	case 0:
		return nil
	case 1, 2:
		return &Param{Index: g.n(2)}
	case 3:
		return &Literal{Value: Int(int64(g.n(6)) - 2)}
	default:
		return g.expr(1, g.n(3) == 0, g.n(3) == 0)
	}
}

// oracleCases are the seeded byte strings both tests start from.
func oracleCases() [][]byte {
	rng := rand.New(rand.NewSource(13))
	cases := make([][]byte, 4000)
	for i := range cases {
		cases[i] = make([]byte, 96)
		rng.Read(cases[i])
	}
	return cases
}

// TestCompiledMatchesOracle: over seeded random cases the compiled
// evaluator and the interpreter agree on every value and every error
// text — NULL three-valued logic, mixed int/text comparison, IN with NULL
// members, LIKE, scalar functions of any arity, aggregates over random
// matched sets (the empty set included), items mixing aggregates with
// bare columns or *, LIMIT/OFFSET from parameters, table-less SELECTs.
func TestCompiledMatchesOracle(t *testing.T) {
	for _, data := range oracleCases() {
		checkCompiledCase(t, data)
	}
}

// TestCompiledAggregateEdges pins the aggregate behaviours the random
// cases reach only by chance.
func TestCompiledAggregateEdges(t *testing.T) {
	db := Open()
	mustExecDB := func(src string, params ...Value) *Result {
		t.Helper()
		res, err := db.Exec(src, params...)
		if err != nil {
			t.Fatalf("Exec(%q): %v", src, err)
		}
		return res
	}
	mustExecDB("CREATE TABLE votes (node_id INTEGER, val INTEGER)")
	row := mustExecDB("SELECT COUNT(*), COUNT(val), SUM(val), AVG(val), MIN(val), MAX(val), COALESCE(MAX(val), 0) + 1 FROM votes").Rows[0]
	want := []Value{Int(0), Int(0), Null(), Null(), Null(), Null(), Int(1)}
	if !reflect.DeepEqual(row, want) {
		t.Fatalf("aggregates over the empty set = %v, want %v", row, want)
	}
	// An unknown column inside an aggregate errs only when a row is
	// evaluated; beside one it errs always.
	if _, err := db.Exec("SELECT SUM(nosuch) FROM votes"); err != nil {
		t.Fatalf("unknown aggregate argument over no rows: %v", err)
	}
	for _, v := range []int64{7, 2} {
		mustExecDB("INSERT INTO votes (node_id, val) VALUES (1, ?)", Int(v))
	}
	for src, wantErr := range map[string]string{
		"SELECT SUM(nosuch) FROM votes":          "sql: eval: no such column nosuch",
		"SELECT COUNT(*), val FROM votes":        "sql: eval: no such column val",
		"SELECT COUNT(*), * FROM votes":          "sql: cannot mix * with aggregates",
		"SELECT SUM(MAX(val)) FROM votes":        "sql: eval: aggregate MAX not allowed here",
		"SELECT SUM(val, val) FROM votes":        "sql: eval: SUM takes one argument",
		"SELECT val FROM votes LIMIT COUNT(*)":   "sql: eval: aggregate COUNT not allowed here",
		"SELECT val FROM votes LIMIT val":        "sql: eval: column val referenced outside row context",
		"SELECT COUNT(*)":                        "sql: eval: aggregate COUNT not allowed here",
		"SELECT 1, *":                            "sql: SELECT * requires a FROM clause",
		"SELECT 1 / SUM(val - val) FROM votes":   "sql: eval: division by zero",
		"SELECT val FROM votes LIMIT ? OFFSET 1": "sql: statement expects 1 parameters, 0 supplied",
	} {
		if _, err := db.Exec(src); err == nil || err.Error() != wantErr {
			t.Errorf("Exec(%q) error = %v, want %q", src, err, wantErr)
		}
	}
	// A short-circuit skips the aggregate and with it the aggregate's
	// error; integer AVG truncates; a shared form is one slot.
	row = mustExecDB("SELECT FALSE AND SUM(nosuch) > 0, AVG(val), MAX(val) - MAX(val)  FROM votes").Rows[0]
	if want := []Value{Bool(false), Int(4), Int(0)}; !reflect.DeepEqual(row, want) {
		t.Fatalf("row = %v, want %v", row, want)
	}
	// An aggregate anywhere in any item makes the query an aggregate
	// query (one row); none leaves it a row query.
	for src, want := range map[string][][]Value{
		"SELECT 1, ABS(0 - MAX(val)) FROM votes":         {{Int(1), Int(7)}},
		"SELECT val IN (MIN(val), 9) IS NULL FROM votes": nil, // val beside an aggregate
		"SELECT ABS(0 - val) FROM votes":                 {{Int(7)}, {Int(2)}},
	} {
		res, err := db.Exec(src)
		if want == nil {
			if err == nil || err.Error() != "sql: eval: no such column val" {
				t.Errorf("Exec(%q) = %v, %v", src, res, err)
			}
		} else if err != nil || !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("Exec(%q) = %v, %v; want %v", src, res, err, want)
		}
	}
	plan, err := db.Explain("SELECT COUNT(*), COALESCE(MAX(val), 0) + MAX(val) FROM votes WHERE node_id = 1")
	if err != nil || plan != "select(votes) scan=full aggregate(COUNT(*), MAX(val))" {
		t.Fatalf("Explain = %q, %v", plan, err)
	}
	// Negative LIMIT means no limit, negative OFFSET none.
	if n := mustExecDB("SELECT val FROM votes LIMIT ? OFFSET ?", Int(-1), Int(-5)).NumRows(); n != 2 {
		t.Fatalf("negative LIMIT/OFFSET returned %d rows, want 2", n)
	}
}

// FuzzCompiledEval is TestCompiledMatchesOracle's generator under the
// fuzzer, seeded with a sample of the property test's own cases.
func FuzzCompiledEval(f *testing.F) {
	for i, data := range oracleCases() {
		if i%40 == 0 {
			f.Add(data)
		}
	}
	f.Fuzz(checkCompiledCase)
}
