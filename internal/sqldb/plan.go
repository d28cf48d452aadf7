package sqldb

import (
	"fmt"
	"strings"
)

// Compiled statement plans: the engine's one evaluator.
//
// A statement's AST is read here, at plan time, and nowhere else. Every
// expression — WHERE, SET, the SELECT list, ORDER BY keys, aggregate
// arguments, LIMIT/OFFSET, INSERT values — compiles once per plan into a
// tree of closures with column ordinals resolved up front, so the
// per-row path performs no allocation, no map lookups, and no AST
// dispatch. This matters most under WARP: every application query is
// rewritten into an augmented statement whose WHERE clause carries four
// extra version conjuncts, all evaluated per row.
//
// Plans are built once per prepared statement (stmtcache.go) — the only
// form the engine executes — and invalidated by the database's DDL
// epoch: any CREATE/ALTER/DROP/CREATE INDEX or constraint change bumps
// the epoch and forces recompilation, so a stale plan can never read
// renumbered ordinals or a dropped index.
//
// Compilation is deliberately lazy about errors: an unknown column, an
// out-of-range parameter, or a misplaced aggregate compiles into a
// closure that fails when (and only when) it is actually evaluated, so
// an empty scan never reports an error a row would have raised.

// compiledExpr evaluates a compiled expression against one row of table
// values (nil for row-less contexts) and the statement parameters.
type compiledExpr func(row []Value, params []Value) (Value, error)

// rowPred is a compiled WHERE predicate: true means the row matches.
type rowPred func(row []Value, params []Value) (bool, error)

// compilePred compiles a WHERE clause into a row predicate. A nil clause
// matches every row.
func compilePred(t *Table, where Expr) rowPred {
	if where == nil {
		return func([]Value, []Value) (bool, error) { return true, nil }
	}
	ce := exprScope{t: t}.compile(where)
	return func(row, params []Value) (bool, error) {
		v, err := ce(row, params)
		if err != nil {
			return false, err
		}
		return v.IsTrue(), nil
	}
}

// exprScope is what a compiled expression may reference.
type exprScope struct {
	// t supplies the row; nil in row-less contexts (LIMIT/OFFSET, INSERT
	// values, a table-less SELECT).
	t *Table
	// aggs is set for the SELECT list of an aggregate query: aggregate
	// calls read their slot, and bare columns — which would need GROUP BY
	// — are rejected.
	aggs *aggPlan
}

// compile compiles e for evaluation within the scope.
func (sc exprScope) compile(e Expr) compiledExpr {
	t := sc.t
	switch e := e.(type) {
	case *Literal:
		v := e.Value
		return func([]Value, []Value) (Value, error) { return v, nil }
	case *Param:
		idx := e.Index
		return func(_ []Value, params []Value) (Value, error) {
			if idx < 0 || idx >= len(params) {
				return Null(), errEval("parameter %d out of range (%d supplied)", idx+1, len(params))
			}
			return params[idx], nil
		}
	case *ColumnRef:
		name := e.Name
		if sc.aggs != nil {
			return compileError("no such column %s", name)
		}
		if t == nil {
			return compileError("column %s referenced outside row context", name)
		}
		ci, ok := t.colIdx[name]
		if !ok {
			return compileError("no such column %s", name)
		}
		return func(row []Value, _ []Value) (Value, error) {
			if row == nil {
				return Null(), errEval("column %s referenced outside row context", name)
			}
			return row[ci], nil
		}
	case *UnaryExpr:
		op := sc.compile(e.Operand)
		switch e.Op {
		case OpNot:
			return func(row, params []Value) (Value, error) {
				v, err := op(row, params)
				if err != nil || v.IsNull() {
					return Null(), err
				}
				return Bool(!v.IsTrue()), nil
			}
		case OpNeg:
			return func(row, params []Value) (Value, error) {
				v, err := op(row, params)
				if err != nil || v.IsNull() {
					return Null(), err
				}
				return Int(-v.AsInt()), nil
			}
		}
		return compileError("unknown unary operator")
	case *BinaryExpr:
		l, r := sc.compile(e.Left), sc.compile(e.Right)
		switch e.Op {
		case OpAnd:
			return func(row, params []Value) (Value, error) {
				lv, err := l(row, params)
				if err != nil {
					return Null(), err
				}
				if !lv.IsNull() && !lv.IsTrue() {
					return Bool(false), nil
				}
				rv, err := r(row, params)
				if err != nil {
					return Null(), err
				}
				if !rv.IsNull() && !rv.IsTrue() {
					return Bool(false), nil
				}
				if lv.IsNull() || rv.IsNull() {
					return Null(), nil
				}
				return Bool(true), nil
			}
		case OpOr:
			return func(row, params []Value) (Value, error) {
				lv, err := l(row, params)
				if err != nil {
					return Null(), err
				}
				if lv.IsTrue() {
					return Bool(true), nil
				}
				rv, err := r(row, params)
				if err != nil {
					return Null(), err
				}
				if rv.IsTrue() {
					return Bool(true), nil
				}
				if lv.IsNull() || rv.IsNull() {
					return Null(), nil
				}
				return Bool(false), nil
			}
		}
		op := e.Op
		return func(row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null(), err
			}
			rv, err := r(row, params)
			if err != nil {
				return Null(), err
			}
			return applyBinary(op, lv, rv)
		}
	case *InExpr:
		item := sc.compile(e.Expr)
		list := make([]compiledExpr, len(e.List))
		for i, le := range e.List {
			list[i] = sc.compile(le)
		}
		not := e.Not
		return func(row, params []Value) (Value, error) {
			v, err := item(row, params)
			if err != nil {
				return Null(), err
			}
			if v.IsNull() {
				return Null(), nil
			}
			sawNull := false
			for _, le := range list {
				iv, err := le(row, params)
				if err != nil {
					return Null(), err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if c, ok := compareValues(v, iv); ok && c == 0 {
					return Bool(!not), nil
				}
			}
			if sawNull {
				return Null(), nil
			}
			return Bool(not), nil
		}
	case *IsNullExpr:
		item := sc.compile(e.Expr)
		not := e.Not
		return func(row, params []Value) (Value, error) {
			v, err := item(row, params)
			if err != nil {
				return Null(), err
			}
			return Bool(v.IsNull() != not), nil
		}
	case *FuncCall:
		if e.IsAggregate() {
			if sc.aggs != nil {
				return sc.aggs.slotFor(e).value
			}
			return compileError("aggregate %s not allowed here", e.Name)
		}
		args := make([]compiledExpr, len(e.Args))
		for i, a := range e.Args {
			args[i] = sc.compile(a)
		}
		name := e.Name
		buf := make([]Value, len(args))
		return func(row, params []Value) (Value, error) {
			for i, a := range args {
				v, err := a(row, params)
				if err != nil {
					return Null(), err
				}
				buf[i] = v
			}
			return scalarFunc(name, buf)
		}
	default:
		return compileError("unsupported expression %T", e)
	}
}

func compileError(format string, args ...any) compiledExpr {
	err := errEval(format, args...)
	return func([]Value, []Value) (Value, error) { return Null(), err }
}

// scanKind enumerates how a plan narrows the row scan through an index.
type scanKind uint8

const (
	scanEq    scanKind = iota // one hash-bucket probe (col = const)
	scanIn                    // bounded set of bucket probes (col IN (consts))
	scanRange                 // ordered skip-list walk (<, <=, >, >=, BETWEEN)
)

// constOrParam is a scan operand fixed at plan time or read from the
// parameter vector at execution time.
type constOrParam struct {
	hasConst bool
	constVal Value // pre-coerced when hasConst
	paramIdx int
}

// resolve returns the operand's value for one execution. It reports
// false when a parameter is missing, which sends the scan to the full
// fallback path.
func (c constOrParam) resolve(params []Value) (Value, bool) {
	if c.hasConst {
		return c.constVal, true
	}
	if c.paramIdx < 0 || c.paramIdx >= len(params) {
		return Value{}, false
	}
	return params[c.paramIdx], true
}

// scanBound is one side of a range scan.
type scanBound struct {
	val  constOrParam
	incl bool
}

// scanPlan is a pre-compiled index-access decision: the scan can be
// narrowed to one hash bucket (`col = const`), a bounded set of buckets
// (`col IN (c1, …)`), or an ordered key range (`col > c`, `BETWEEN`, …)
// when the WHERE clause contains a usable top-level AND-conjunct over an
// indexed column. Constants are checked against the column's declared
// type (CoerceToColumn / range monotonicity rules) so index probes agree
// with the scan-time comparison semantics; anything uncertain falls back
// to a full scan at execution, where the compiled predicate — which
// always re-checks the entire WHERE clause — keeps results identical.
type scanPlan struct {
	kind    scanKind
	column  string
	colKind Kind // declared column type, for coercion
	eq      constOrParam
	in      []constOrParam
	lo, hi  *scanBound // either may be nil (half-open range)
	// suffix cuts each probe of an eq/IN scan to the postings a sibling
	// conjunct on the index's suffix column admits; nil when the index has
	// no suffix column (colIndex) or no conjunct binds.
	suffix *suffixBound
}

// suffixBound is a conjunct `column op val`, op one of > >= =, val bound
// like a range bound (bindRange): its comparison is monotone over the
// stored values, so the postings it can be true of are one run.
type suffixBound struct {
	column string
	kind   Kind // the column's declared type
	op     BinOp
	val    constOrParam
}

// orderIdxPlan records that ORDER BY is served by walking the column's
// ordered index instead of sorting: set only when the single ORDER BY
// key is an indexed bare column the chosen scan is compatible with.
type orderIdxPlan struct {
	column string
	desc   bool
}

// lookupKey resolves the bucket key of an equality probe, reporting
// false when the scan must fall back to all live rows.
func (p *scanPlan) lookupKey(params []Value) (string, bool) {
	v, ok := p.eq.resolve(params)
	if !ok {
		return "", false
	}
	if p.eq.hasConst {
		return v.Key(), true
	}
	cv, ok := CoerceToColumn(v, p.colKind)
	if !ok {
		return "", false
	}
	return cv.Key(), true
}

// planScan finds the first usable index-access conjunct in left-to-right
// AND order, preferring an equality probe over a bounded IN over a key
// range, splitting the decision (compile time) from operand resolution
// (execution time) so cached plans skip the AST walk on every execution.
func (t *Table) planScan(where Expr) *scanPlan {
	conjuncts := Conjuncts(where)
	if p := t.planEqConjunct(conjuncts); p != nil {
		return p
	}
	if p := t.planInConjunct(conjuncts); p != nil {
		return p
	}
	return t.planRangeConjuncts(conjuncts)
}

// Conjuncts flattens the top-level ANDs of e in left-to-right order; a
// nil clause has none. Both static analyses of a WHERE clause — the scan
// planner here and the time-travel layer's partition extraction — start
// from it.
func Conjuncts(e Expr) []Expr {
	if be, ok := e.(*BinaryExpr); ok && be.Op == OpAnd {
		return append(Conjuncts(be.Left), Conjuncts(be.Right)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

func (t *Table) planEqConjunct(conjuncts []Expr) *scanPlan {
	for _, e := range conjuncts {
		be, ok := e.(*BinaryExpr)
		if !ok || be.Op != OpEq {
			continue
		}
		col, ve, ok := ConstCmp(be)
		if !ok {
			continue
		}
		kind, ok := t.indexedColKind(col)
		if !ok {
			continue
		}
		p := &scanPlan{kind: scanEq, column: col, colKind: kind}
		if !p.eq.bind(ve, kind) {
			continue // uncoercible literal: this conjunct can only scan
		}
		p.suffix = t.planSuffixBound(col, conjuncts)
		return p
	}
	return nil
}

func (t *Table) planInConjunct(conjuncts []Expr) *scanPlan {
	for _, e := range conjuncts {
		in, ok := e.(*InExpr)
		if ok && !in.Not {
			if p := t.planIn(in); p != nil {
				p.suffix = t.planSuffixBound(p.column, conjuncts)
				return p
			}
		}
	}
	return nil
}

func (t *Table) planIn(in *InExpr) *scanPlan {
	col, ok := in.Expr.(*ColumnRef)
	if !ok {
		return nil
	}
	kind, haveIdx := t.indexedColKind(col.Name)
	if !haveIdx {
		return nil
	}
	p := &scanPlan{kind: scanIn, column: col.Name, colKind: kind}
	for _, le := range in.List {
		var c constOrParam
		switch v := le.(type) {
		case *Literal:
			if v.Value.IsNull() {
				continue // NULL list element never equals a column value
			}
			cv, ok := CoerceToColumn(v.Value, kind)
			if !ok {
				if kind == KindInt {
					continue // non-numeric text can never equal an integer
				}
				return nil // probing would lose matches; scan instead
			}
			c = constOrParam{hasConst: true, constVal: cv}
		case *Param:
			c = constOrParam{paramIdx: v.Index}
		default:
			return nil
		}
		p.in = append(p.in, c)
	}
	return p
}

// planSuffixBound returns the first conjunct `suffix >|>=|= const` on the
// suffix column of col's index, or nil.
func (t *Table) planSuffixBound(col string, conjuncts []Expr) *suffixBound {
	ix := t.indexes[col]
	if ix.sufPos < 0 {
		return nil
	}
	def := t.Columns[ix.sufPos]
	for _, e := range conjuncts {
		be, ok := e.(*BinaryExpr)
		if !ok || (be.Op != OpGt && be.Op != OpGe && be.Op != OpEq) {
			continue
		}
		if c, ok := be.Left.(*ColumnRef); !ok || c.Name != def.Name {
			continue
		}
		sb := &suffixBound{column: def.Name, kind: def.Type, op: be.Op}
		if sb.val.bindRange(be.Right, def.Type) {
			return sb
		}
	}
	return nil
}

func (t *Table) planRangeConjuncts(conjuncts []Expr) *scanPlan {
	var p *scanPlan
	for _, e := range conjuncts {
		be, ok := e.(*BinaryExpr)
		if !ok {
			continue
		}
		var lower, incl bool
		switch be.Op {
		case OpLt:
			lower, incl = false, false
		case OpLe:
			lower, incl = false, true
		case OpGt:
			lower, incl = true, false
		case OpGe:
			lower, incl = true, true
		default:
			continue
		}
		col, ve, ok := ConstCmp(be)
		if !ok {
			continue
		}
		if _, isCol := be.Right.(*ColumnRef); isCol {
			// Reversed operand order (`const < col`) flips the bound side.
			lower = !lower
		}
		kind, haveIdx := t.indexedColKind(col)
		if !haveIdx {
			continue
		}
		if p == nil {
			p = &scanPlan{kind: scanRange, column: col, colKind: kind}
		} else if p.column != col {
			continue // first range column wins; pred re-checks the rest
		}
		var c constOrParam
		if !c.bindRange(ve, kind) {
			continue
		}
		b := &scanBound{val: c, incl: incl}
		if lower && p.lo == nil {
			p.lo = b
		} else if !lower && p.hi == nil {
			p.hi = b
		}
	}
	if p == nil || (p.lo == nil && p.hi == nil) {
		return nil
	}
	return p
}

// bind fixes an equality/IN operand, pre-coercing literals to the
// column type. False means the operand can never probe the index.
func (c *constOrParam) bind(e Expr, kind Kind) bool {
	switch v := e.(type) {
	case *Literal:
		cv, ok := CoerceToColumn(v.Value, kind)
		if !ok {
			return false
		}
		c.hasConst = true
		c.constVal = cv
	case *Param:
		c.paramIdx = v.Index
	default:
		return false
	}
	return true
}

// bindRange fixes a range bound. Unlike equality probes, a range walk
// needs the bound's comparison against the stored keys to be monotone in
// key order, not merely exact: for INTEGER and BOOLEAN columns any
// non-text bound (and numeric text) compares numerically, which is
// monotone, so the raw value is kept; for TEXT columns only a TEXT bound
// preserves lexicographic order (numeric strings compare numerically
// against other kinds, which interleaves them).
func (c *constOrParam) bindRange(e Expr, kind Kind) bool {
	switch v := e.(type) {
	case *Literal:
		if kind == KindText && !v.Value.IsNull() && v.Value.Kind != KindText {
			return false
		}
		c.hasConst = true
		c.constVal = v.Value
	case *Param:
		c.paramIdx = v.Index
	default:
		return false
	}
	return true
}

// rangeValue resolves a range bound on a column of the given kind for one
// execution. ok=false means the bound cannot be used (the scan falls
// back); empty=true means it is NULL and its conjunct is true of no row.
func (c constOrParam) rangeValue(kind Kind, params []Value) (v Value, empty, ok bool) {
	v, ok = c.resolve(params)
	if ok && !c.hasConst && kind == KindText && !v.IsNull() && v.Kind != KindText {
		ok = false // see bindRange: would break monotonicity
	}
	return v, ok && v.IsNull(), ok
}

// rangeBoundFor resolves one side of a range scan (nil: unbounded).
func (p *scanPlan) rangeBoundFor(b *scanBound, params []Value) (rb *rangeBoundVal, empty, ok bool) {
	if b == nil {
		return nil, false, true
	}
	v, empty, ok := b.val.rangeValue(p.colKind, params)
	if ok && !empty {
		rb = &rangeBoundVal{v: v, incl: b.incl}
	}
	return rb, empty, ok
}

// indexedColKind returns the declared type of col if it is indexed.
func (t *Table) indexedColKind(col string) (Kind, bool) {
	if _, indexed := t.indexes[col]; !indexed {
		return KindNull, false
	}
	ci, ok := t.columnPos(col)
	if !ok {
		return KindNull, false
	}
	return t.Columns[ci].Type, true
}

// ConstCmp decomposes `col <op> const` (either operand order) where
// const is a literal or parameter, returning the constant's expression.
func ConstCmp(e *BinaryExpr) (string, Expr, bool) {
	if col, ok := e.Left.(*ColumnRef); ok {
		if isConstExpr(e.Right) {
			return col.Name, e.Right, true
		}
	}
	if col, ok := e.Right.(*ColumnRef); ok {
		if isConstExpr(e.Left) {
			return col.Name, e.Left, true
		}
	}
	return "", nil, false
}

func isConstExpr(e Expr) bool {
	switch e.(type) {
	case *Literal, *Param:
		return true
	}
	return false
}

//
// Per-statement plans
//

// selectPlan is the compiled form of a SELECT. It takes one of two
// shapes: a row pipeline (scan, ORDER BY, projection, DISTINCT, LIMIT), or
// — for an aggregate query and for a table-less SELECT — a single result
// row whose items are evaluated once (projectOneRow).
type selectPlan struct {
	table    *Table // nil for a table-less SELECT
	where    rowPred
	scan     *scanPlan
	orderIdx *orderIdxPlan // ORDER BY served by index walk; no sort step
	columns  []string      // result header
	items    []planItem
	orderBy  []compiledExpr
	nOut     int      // number of result columns
	aggs     *aggPlan // non-nil: the items read aggregate slots
	// limit and offset are row-less expressions; nil when absent.
	limit, offset compiledExpr
}

// planItem is one compiled SELECT-list entry; star items splice the full
// row.
type planItem struct {
	star bool
	expr compiledExpr
}

func (db *DB) planSelect(t *Table, s *Select) *selectPlan {
	p := &selectPlan{table: t}
	if s.Limit != nil {
		p.limit = exprScope{}.compile(s.Limit)
	}
	if s.Offset != nil {
		p.offset = exprScope{}.compile(s.Offset)
	}
	items := exprScope{t: t}
	if t != nil {
		if s.Where != nil {
			p.scan = t.planScan(s.Where)
		}
		p.where = compilePred(t, s.Where)
		// It is an aggregate query if compiling its items as one finds an
		// aggregate call; the loop below compiles them again, into the same slots.
		aggs := &aggPlan{table: t}
		for _, it := range s.Items {
			if !it.Star {
				exprScope{aggs: aggs}.compile(it.Expr)
			}
		}
		if len(aggs.slots) > 0 {
			p.aggs = aggs
			items = exprScope{aggs: aggs}
		} else {
			p.orderIdx = t.planOrderIdx(s.OrderBy, p.scan)
			for _, ob := range s.OrderBy {
				p.orderBy = append(p.orderBy, items.compile(ob.Expr))
			}
		}
	}
	for _, it := range s.Items {
		if it.Star {
			p.items = append(p.items, planItem{star: true})
			if t != nil && p.aggs == nil { // a one-row plan rejects * when it gets there
				p.columns = append(p.columns, t.ColumnNames()...)
				p.nOut += len(t.Columns)
			}
			continue
		}
		p.columns = append(p.columns, itemName(it))
		p.items = append(p.items, planItem{expr: items.compile(it.Expr)})
		p.nOut++
	}
	return p
}

// aggPlan holds the distinct aggregate calls of a SELECT list, one slot
// per SQL form (COALESCE(MAX(id), 0) + 1 and a second MAX(id) share one).
// fill computes every slot in one pass over the matched rows; the item
// expressions then read the slots as leaves. The accumulators live in the
// plan itself: a plan runs under db.mu, one execution at a time.
type aggPlan struct {
	table *Table
	slots []*aggSlot
}

// aggSlot is one aggregate call and its accumulator.
type aggSlot struct {
	form string // SQL text; the dedup key and the EXPLAIN rendering
	name string
	// arg is the compiled argument: a non-NULL constant for COUNT(*), and
	// nil for a call of the wrong arity.
	arg compiledExpr

	count, sum int64
	min, max   Value
	// err is arg's first failure over the matched rows, or the arity error;
	// it surfaces when the slot is read (a short-circuit may never read it).
	err error
}

// slotFor returns the slot computing fc, adding it on first sight.
func (a *aggPlan) slotFor(fc *FuncCall) *aggSlot {
	form := fc.String()
	for _, s := range a.slots {
		if s.form == form {
			return s
		}
	}
	s := &aggSlot{form: form, name: fc.Name}
	if fc.Name == "COUNT" && fc.Star {
		s.arg = exprScope{}.compile(Lit(Int(1)))
	} else if len(fc.Args) == 1 {
		s.arg = exprScope{t: a.table}.compile(fc.Args[0])
	}
	a.slots = append(a.slots, s)
	return s
}

// fill computes every slot over the matched rows.
func (a *aggPlan) fill(matched []int, params []Value) {
	for _, s := range a.slots {
		s.count, s.sum, s.min, s.max, s.err = 0, 0, Value{}, Value{}, nil
		if s.arg == nil {
			s.err = errEval("%s takes one argument", s.name)
		}
	}
	for _, slot := range matched {
		vals := a.table.store.rowAt(slot).vals
		for _, s := range a.slots {
			if s.err != nil {
				continue
			}
			v, err := s.arg(vals, params)
			if err != nil {
				s.err = err
				continue
			}
			if v.IsNull() {
				continue
			}
			s.count++
			s.sum += v.AsInt()
			if s.min.IsNull() {
				s.min, s.max = v, v
				continue
			}
			if c, ok := compareValues(v, s.min); ok && c < 0 {
				s.min = v
			}
			if c, ok := compareValues(v, s.max); ok && c > 0 {
				s.max = v
			}
		}
	}
}

// value reads the slot's aggregate; it is the compiled leaf an item
// expression holds for the call.
func (s *aggSlot) value([]Value, []Value) (Value, error) {
	if s.err != nil {
		return Null(), s.err
	}
	switch s.name {
	case "COUNT":
		return Int(s.count), nil
	case "SUM", "AVG":
		if s.count == 0 {
			return Null(), nil
		}
		if s.name == "SUM" {
			return Int(s.sum), nil
		}
		return Int(s.sum / s.count), nil
	case "MIN":
		return s.min, nil
	default: // MAX: IsAggregate admits no other name
		return s.max, nil
	}
}

// planOrderIdx decides whether ORDER BY can ride the index walk instead
// of sorting: the single sort key must be a bare indexed column, and the
// chosen scan must already enumerate in that column's order — a full
// scan (upgraded to a full index walk), or an eq/IN/range scan on the
// same column. Equal keys come back in ascending slot order from the
// posting lists, exactly the tie order the stable sort produces, so
// results are bit-identical to the sorting path.
func (t *Table) planOrderIdx(orderBy []OrderBy, scan *scanPlan) *orderIdxPlan {
	if len(orderBy) != 1 {
		return nil
	}
	col, ok := orderBy[0].Expr.(*ColumnRef)
	if !ok {
		return nil
	}
	if _, indexed := t.indexes[col.Name]; !indexed {
		return nil
	}
	if scan != nil && scan.column != col.Name {
		return nil // scan narrows on another column; sort the survivors
	}
	return &orderIdxPlan{column: col.Name, desc: orderBy[0].Desc}
}

// updatePlan is the compiled form of an UPDATE.
type updatePlan struct {
	table *Table
	where rowPred
	scan  *scanPlan
	set   assignPlan
	keep  assignPlan // a versioned update's overrides of the kept before-image
	ret   []retCol
	err   error // unknown SET, KEEP or RETURNING column (surfaced before any row work)
}

// assignPlan is a compiled assignment list: column ordinals and the
// compiled expressions that fill them.
type assignPlan struct {
	pos   []int
	exprs []compiledExpr
}

// apply evaluates the assignments over src into dst.
func (a assignPlan) apply(src, dst []Value, params []Value) error {
	for i, e := range a.exprs {
		v, err := e(src, params)
		if err != nil {
			return err
		}
		dst[a.pos[i]] = v
	}
	return nil
}

// retCol is one RETURNING column: its ordinal, and whether it reads the
// before-image (OLD.c).
type retCol struct {
	pos int
	old bool
}

func (db *DB) planUpdate(t *Table, s *Update) *updatePlan {
	p := &updatePlan{table: t}
	compile := func(as []Assignment) assignPlan {
		a := assignPlan{pos: make([]int, len(as)), exprs: make([]compiledExpr, len(as))}
		for i, as := range as {
			ci, ok := t.columnPos(as.Column)
			if !ok && p.err == nil {
				p.err = fmt.Errorf("sql: table %s: no such column %s", s.Table, as.Column)
			}
			a.pos[i] = ci
			a.exprs[i] = exprScope{t: t}.compile(as.Expr)
		}
		return a
	}
	p.set, p.keep = compile(s.Set), compile(s.Keep)
	for _, c := range s.Returning {
		name, old := strings.CutPrefix(c, OldPrefix)
		ci, ok := t.columnPos(name)
		if !ok && p.err == nil {
			p.err = fmt.Errorf("sql: table %s: no such column %s", s.Table, c)
		}
		p.ret = append(p.ret, retCol{pos: ci, old: old})
	}
	if s.Where != nil {
		p.scan = t.planScan(s.Where)
	}
	p.where = compilePred(t, s.Where)
	return p
}

// returning projects one updated row's RETURNING columns.
func (p *updatePlan) returning(oldVals, newVals []Value) []Value {
	out := make([]Value, len(p.ret))
	for i, rc := range p.ret {
		if rc.old {
			out[i] = oldVals[rc.pos]
		} else {
			out[i] = newVals[rc.pos]
		}
	}
	return out
}

// deletePlan is the compiled form of a DELETE.
type deletePlan struct {
	table *Table
	where rowPred
	scan  *scanPlan
}

func (db *DB) planDelete(t *Table, s *Delete) *deletePlan {
	p := &deletePlan{table: t}
	if s.Where != nil {
		p.scan = t.planScan(s.Where)
	}
	p.where = compilePred(t, s.Where)
	return p
}

// insertPlan is the compiled form of an INSERT: column ordinals resolved
// and row expressions compiled (they reference no columns, only literals
// and parameters).
type insertPlan struct {
	table  *Table
	colPos []int
	posErr error
	rows   [][]compiledExpr
}

func (db *DB) planInsert(t *Table, s *Insert) *insertPlan {
	p := &insertPlan{table: t}
	cols := s.Columns
	if len(cols) == 0 {
		cols = t.ColumnNames()
	}
	p.colPos = make([]int, len(cols))
	for i, c := range cols {
		ci, ok := t.columnPos(c)
		if !ok {
			p.posErr = fmt.Errorf("sql: table %s: no such column %s", s.Table, c)
			return p
		}
		p.colPos[i] = ci
	}
	p.rows = make([][]compiledExpr, len(s.Rows))
	for i, exprRow := range s.Rows {
		ce := make([]compiledExpr, len(exprRow))
		for j, e := range exprRow {
			ce[j] = exprScope{}.compile(e)
		}
		p.rows[i] = ce
	}
	return p
}

// countParams returns the number of positional parameters a statement
// expects: one past the highest ?-index it references, or 0 for none.
func countParams(stmt Statement) int {
	max := -1
	note := func(e Expr) {
		if n := exprMaxParam(e); n > max {
			max = n
		}
	}
	switch s := stmt.(type) {
	case *Select:
		for _, it := range s.Items {
			note(it.Expr)
		}
		note(s.Where)
		for _, ob := range s.OrderBy {
			note(ob.Expr)
		}
		note(s.Limit)
		note(s.Offset)
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				note(e)
			}
		}
	case *Update:
		for _, a := range append(s.Set[:len(s.Set):len(s.Set)], s.Keep...) {
			note(a.Expr)
		}
		note(s.Where)
	case *Delete:
		note(s.Where)
	}
	return max + 1
}

// exprMaxParam returns the highest parameter index in e, or -1.
func exprMaxParam(e Expr) int {
	max := -1
	up := func(n int) {
		if n > max {
			max = n
		}
	}
	switch e := e.(type) {
	case nil:
		return -1
	case *Param:
		return e.Index
	case *UnaryExpr:
		up(exprMaxParam(e.Operand))
	case *BinaryExpr:
		up(exprMaxParam(e.Left))
		up(exprMaxParam(e.Right))
	case *InExpr:
		up(exprMaxParam(e.Expr))
		for _, item := range e.List {
			up(exprMaxParam(item))
		}
	case *IsNullExpr:
		up(exprMaxParam(e.Expr))
	case *FuncCall:
		for _, a := range e.Args {
			up(exprMaxParam(a))
		}
	}
	return max
}

// stmtPlan binds a statement's compiled plan to the engine state it was
// compiled against. It is valid only while the same *DB is at the same
// DDL epoch; any schema or index change recompiles.
type stmtPlan struct {
	db    *DB
	epoch uint64
	sel   *selectPlan
	upd   *updatePlan
	del   *deletePlan
	ins   *insertPlan
}

// planFor returns a valid cached plan for cs against db (which must hold
// db.mu), compiling and caching one on miss or staleness.
func (db *DB) planFor(cs *CachedStmt) *stmtPlan {
	if p := cs.plan.Load(); p != nil && p.db == db && p.epoch == db.epoch.Load() {
		planHits.Inc()
		return p
	}
	planMisses.Inc()
	p := &stmtPlan{db: db, epoch: db.epoch.Load()}
	switch s := cs.Stmt.(type) {
	case *Select:
		if s.Table == "" {
			p.sel = db.planSelect(nil, s)
		} else if t, ok := db.tables[s.Table]; ok {
			p.sel = db.planSelect(t, s)
		}
	case *Update:
		if t, ok := db.tables[s.Table]; ok {
			p.upd = db.planUpdate(t, s)
		}
	case *Delete:
		if t, ok := db.tables[s.Table]; ok {
			p.del = db.planDelete(t, s)
		}
	case *Insert:
		if t, ok := db.tables[s.Table]; ok {
			p.ins = db.planInsert(t, s)
		}
	}
	cs.plan.Store(p)
	return p
}
