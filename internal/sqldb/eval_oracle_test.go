package sqldb

import "fmt"

// The tree-walking evaluator, kept as a test-only oracle. Production code
// evaluates compiled closures only (plan.go); this file is the
// interpreter those closures replaced — per-row AST dispatch, aggregates
// memoized by SQL form and computed one pass each, LIMIT/OFFSET and
// table-less SELECT items walked per execution — preserved as it was so
// TestCompiledMatchesOracle and FuzzCompiledEval (compiled_oracle_test.go)
// can hold the compiler to the same values and the same error texts. It
// shares the leaf semantics in eval.go with the compiler and nothing
// else.

// evalCtx supplies column values and statement parameters to expression
// evaluation. agg, when set, resolves aggregate calls to pre-computed
// values (used by SELECT with aggregates).
type evalCtx struct {
	lookup func(name string) (Value, bool)
	params []Value
	agg    func(fc *FuncCall) (Value, error)
}

// evalExpr evaluates e in ctx. Three-valued logic is approximated the way
// most embedded engines do: comparisons with NULL yield NULL (represented
// as the NULL value), and WHERE treats anything but TRUE as non-matching.
func evalExpr(e Expr, ctx *evalCtx) (Value, error) {
	switch e := e.(type) {
	case *Literal:
		return e.Value, nil
	case *Param:
		if e.Index < 0 || e.Index >= len(ctx.params) {
			return Null(), errEval("parameter %d out of range (%d supplied)", e.Index+1, len(ctx.params))
		}
		return ctx.params[e.Index], nil
	case *ColumnRef:
		if ctx.lookup == nil {
			return Null(), errEval("column %s referenced outside row context", e.Name)
		}
		v, ok := ctx.lookup(e.Name)
		if !ok {
			return Null(), errEval("no such column %s", e.Name)
		}
		return v, nil
	case *UnaryExpr:
		v, err := evalExpr(e.Operand, ctx)
		if err != nil {
			return Null(), err
		}
		switch e.Op {
		case OpNot:
			if v.IsNull() {
				return Null(), nil
			}
			return Bool(!v.IsTrue()), nil
		case OpNeg:
			if v.IsNull() {
				return Null(), nil
			}
			return Int(-v.AsInt()), nil
		}
		return Null(), errEval("unknown unary operator")
	case *BinaryExpr:
		return evalBinary(e, ctx)
	case *InExpr:
		return evalIn(e, ctx)
	case *IsNullExpr:
		v, err := evalExpr(e.Expr, ctx)
		if err != nil {
			return Null(), err
		}
		return Bool(v.IsNull() != e.Not), nil
	case *FuncCall:
		return evalFunc(e, ctx)
	default:
		return Null(), errEval("unsupported expression %T", e)
	}
}

func evalBinary(e *BinaryExpr, ctx *evalCtx) (Value, error) {
	// AND/OR get short-circuit handling with NULL propagation.
	switch e.Op {
	case OpAnd:
		l, err := evalExpr(e.Left, ctx)
		if err != nil {
			return Null(), err
		}
		if !l.IsNull() && !l.IsTrue() {
			return Bool(false), nil
		}
		r, err := evalExpr(e.Right, ctx)
		if err != nil {
			return Null(), err
		}
		if !r.IsNull() && !r.IsTrue() {
			return Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(true), nil
	case OpOr:
		l, err := evalExpr(e.Left, ctx)
		if err != nil {
			return Null(), err
		}
		if l.IsTrue() {
			return Bool(true), nil
		}
		r, err := evalExpr(e.Right, ctx)
		if err != nil {
			return Null(), err
		}
		if r.IsTrue() {
			return Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(false), nil
	}

	l, err := evalExpr(e.Left, ctx)
	if err != nil {
		return Null(), err
	}
	r, err := evalExpr(e.Right, ctx)
	if err != nil {
		return Null(), err
	}
	return applyBinary(e.Op, l, r)
}

func evalIn(e *InExpr, ctx *evalCtx) (Value, error) {
	v, err := evalExpr(e.Expr, ctx)
	if err != nil {
		return Null(), err
	}
	if v.IsNull() {
		return Null(), nil
	}
	sawNull := false
	for _, item := range e.List {
		iv, err := evalExpr(item, ctx)
		if err != nil {
			return Null(), err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if c, ok := compareValues(v, iv); ok && c == 0 {
			return Bool(!e.Not), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(e.Not), nil
}

func evalFunc(e *FuncCall, ctx *evalCtx) (Value, error) {
	if e.IsAggregate() {
		if ctx.agg != nil {
			return ctx.agg(e)
		}
		return Null(), errEval("aggregate %s not allowed here", e.Name)
	}
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := evalExpr(a, ctx)
		if err != nil {
			return Null(), err
		}
		args[i] = v
	}
	return scalarFunc(e.Name, args)
}

func applyLimit(res *Result, s *Select, params []Value) (*Result, error) {
	ctx := &evalCtx{params: params}
	offset := 0
	if s.Offset != nil {
		v, err := evalExpr(s.Offset, ctx)
		if err != nil {
			return nil, err
		}
		offset = int(v.AsInt())
		if offset < 0 {
			offset = 0
		}
	}
	if offset > len(res.Rows) {
		offset = len(res.Rows)
	}
	res.Rows = res.Rows[offset:]
	if s.Limit != nil {
		v, err := evalExpr(s.Limit, ctx)
		if err != nil {
			return nil, err
		}
		limit := int(v.AsInt())
		if limit >= 0 && limit < len(res.Rows) {
			res.Rows = res.Rows[:limit]
		}
	}
	return res, nil
}

func (db *DB) execSelectNoTable(s *Select, params []Value) (*Result, error) {
	res := &Result{}
	ctx := &evalCtx{params: params}
	row := make([]Value, 0, len(s.Items))
	for _, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: SELECT * requires a FROM clause")
		}
		res.Columns = append(res.Columns, itemName(it))
		v, err := evalExpr(it.Expr, ctx)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	res.Rows = append(res.Rows, row)
	return applyLimit(res, s, params)
}

// execAggregates evaluates a SELECT whose items contain aggregate calls:
// each aggregate is computed over the matched rows (memoized by its SQL
// form) and the item expressions are then evaluated with aggregates
// substituted, so forms like COALESCE(MAX(id), 0) + 1 work.
func (t *Table) execAggregates(s *Select, matched []int, params []Value) (*Result, error) {
	cache := make(map[string]Value)
	ctx := &evalCtx{
		params: params,
		agg: func(fc *FuncCall) (Value, error) {
			key := fc.String()
			if v, ok := cache[key]; ok {
				return v, nil
			}
			v, err := t.evalAggregate(fc, matched, params)
			if err != nil {
				return Null(), err
			}
			cache[key] = v
			return v, nil
		},
		lookup: func(name string) (Value, bool) {
			// Plain column references outside aggregates would need GROUP
			// BY semantics; reject via "not found".
			return Null(), false
		},
	}
	res := &Result{}
	row := make([]Value, 0, len(s.Items))
	for _, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: cannot mix * with aggregates")
		}
		res.Columns = append(res.Columns, itemName(it))
		v, err := evalExpr(it.Expr, ctx)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	res.Rows = append(res.Rows, row)
	return res, nil
}

func (t *Table) evalAggregate(fc *FuncCall, matched []int, params []Value) (Value, error) {
	if fc.Name == "COUNT" && fc.Star {
		return Int(int64(len(matched))), nil
	}
	if len(fc.Args) != 1 {
		return Null(), errEval("%s takes one argument", fc.Name)
	}
	var (
		count int64
		sum   int64
		min   Value
		max   Value
	)
	for _, slot := range matched {
		ctx := t.rowCtx(slot, params)
		v, err := evalExpr(fc.Args[0], ctx)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			continue
		}
		count++
		sum += v.AsInt()
		if min.IsNull() {
			min, max = v, v
			continue
		}
		if c, ok := compareValues(v, min); ok && c < 0 {
			min = v
		}
		if c, ok := compareValues(v, max); ok && c > 0 {
			max = v
		}
	}
	switch fc.Name {
	case "COUNT":
		return Int(count), nil
	case "SUM":
		if count == 0 {
			return Null(), nil
		}
		return Int(sum), nil
	case "AVG":
		if count == 0 {
			return Null(), nil
		}
		return Int(sum / count), nil
	case "MIN":
		return min, nil
	case "MAX":
		return max, nil
	}
	return Null(), errEval("unknown aggregate %s", fc.Name)
}

func (t *Table) rowCtx(slot int, params []Value) *evalCtx {
	vals := t.store.rowAt(slot).vals
	return &evalCtx{
		params: params,
		lookup: func(name string) (Value, bool) {
			ci, ok := t.colIdx[name]
			if !ok {
				return Null(), false
			}
			return vals[ci], true
		},
	}
}

// oracleSelect runs a SELECT without ORDER BY or DISTINCT entirely
// through the interpreter: a full scan in slot order filtered by the
// interpreted WHERE, then the interpreted aggregate (when the caller built
// an aggregate query), row or table-less projection.
func (db *DB) oracleSelect(s *Select, params []Value, aggregate bool) (*Result, error) {
	if s.Table == "" {
		return db.execSelectNoTable(s, params)
	}
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sql: no such table %s", s.Table)
	}
	var matched []int
	err := t.store.forEachLive(func(slot int, r *row) error {
		if s.Where != nil {
			v, err := evalExpr(s.Where, t.rowCtx(slot, params))
			if err != nil || !v.IsTrue() {
				return err
			}
		}
		matched = append(matched, slot)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if aggregate {
		return t.execAggregates(s, matched, params)
	}
	res := &Result{}
	for _, it := range s.Items {
		if it.Star {
			res.Columns = append(res.Columns, t.ColumnNames()...)
		} else {
			res.Columns = append(res.Columns, itemName(it))
		}
	}
	for _, slot := range matched {
		var out []Value
		for _, it := range s.Items {
			if it.Star {
				out = append(out, t.store.rowAt(slot).vals...)
				continue
			}
			v, err := evalExpr(it.Expr, t.rowCtx(slot, params))
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	return applyLimit(res, s, params)
}
