package sqldb

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"
)

// Result is the outcome of executing a statement. For SELECT (and for
// writes with RETURNING) Columns and Rows are populated; for writes,
// Affected counts the rows inserted, updated, or deleted.
type Result struct {
	Columns []string
	Rows    [][]Value
	// Affected is the number of rows the statement wrote.
	Affected int
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int { return len(r.Rows) }

// Empty reports whether the result has no rows.
func (r *Result) Empty() bool { return len(r.Rows) == 0 }

// FirstValue returns the first column of the first row, or NULL when the
// result is empty.
func (r *Result) FirstValue() Value {
	if len(r.Rows) == 0 || len(r.Rows[0]) == 0 {
		return Null()
	}
	return r.Rows[0][0]
}

// Col returns the values of the named column across all rows. Unknown
// columns yield an empty slice.
func (r *Result) Col(name string) []Value {
	idx := -1
	for i, c := range r.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]Value, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, row[idx])
	}
	return out
}

// Fingerprint returns a hash covering column names and every row value, in
// order. The repair controller compares fingerprints to decide whether a
// re-executed query produced the same result as the original run (§2.1,
// "equivalence of inputs").
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, c := range r.Columns {
		h.Write([]byte(c))
		h.Write([]byte{1})
	}
	h.Write([]byte{2})
	h.Write([]byte(strconv.Itoa(r.Affected)))
	for _, row := range r.Rows {
		for _, v := range row {
			h.Write([]byte(v.Key()))
			h.Write([]byte{3})
		}
		h.Write([]byte{4})
	}
	return h.Sum64()
}

// Exec parses and executes one SQL statement: text sugar over the
// statement cache. Parsed statements and their compiled plans are cached
// per source text in the database's own statement cache, so repeated
// forms pay the parser and planner once.
func (db *DB) Exec(src string, params ...Value) (*Result, error) {
	cs, err := db.stmts.Get(src)
	if err != nil {
		return nil, err
	}
	return db.exec(cs, params)
}

// ExecCached executes a prepared statement, reusing (or building) its
// compiled plan: column ordinals, the indexable-equality decision, and
// the compiled WHERE/SET/projection evaluators survive across
// executions and are invalidated by the DDL epoch.
func (db *DB) ExecCached(cs *CachedStmt, params []Value) (*Result, error) {
	return db.exec(cs, params)
}

// ParamCountError reports an execution whose parameter vector does not
// match the statement's placeholders. It is raised before the engine
// lock is taken, so a malformed call has no effect at all.
type ParamCountError struct {
	Want, Got int
}

// Error implements the error interface.
func (e *ParamCountError) Error() string {
	return fmt.Sprintf("sql: statement expects %d parameters, %d supplied", e.Want, e.Got)
}

// CheckParams returns a *ParamCountError unless params supplies exactly
// one value per placeholder of the statement.
func (cs *CachedStmt) CheckParams(params []Value) error {
	if len(params) != cs.nParams {
		return &ParamCountError{Want: cs.nParams, Got: len(params)}
	}
	return nil
}

// exec is the one road into the engine: every statement runs as a
// prepared handle through execUnderLock, and the latency histogram and
// slow-query hook observe it here and nowhere else. The clock is read
// only when obs or a slow-query threshold arms it.
func (db *DB) exec(cs *CachedStmt, params []Value) (*Result, error) {
	if err := cs.CheckParams(params); err != nil {
		return nil, err
	}
	var start time.Time
	timed := timedExec()
	if timed {
		start = time.Now()
	}
	res, shape, err := db.execUnderLock(cs, params)
	if timed {
		observeExec(start, shape, cs)
	}
	return res, err
}

// execUnderLock holds db.mu while it runs one prepared statement, and
// reports the plan shape it executed with.
func (db *DB) execUnderLock(cs *CachedStmt, params []Value) (*Result, ExecShape, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var (
		res   *Result
		shape = ShapeOther
		err   error
	)
	switch s := cs.Stmt.(type) {
	case *Select:
		if p := db.planFor(cs); p.sel == nil {
			err = fmt.Errorf("sql: no such table %s", s.Table)
		} else {
			return db.runSelect(s, p.sel, params)
		}
	case *Update:
		if p := db.planFor(cs); p.upd == nil {
			err = fmt.Errorf("sql: no such table %s", s.Table)
		} else {
			shape = ShapeUpdate
			res, err = db.runUpdate(p.upd.table, s, p.upd, params)
			db.noteWrite(p.upd.table, res, err)
		}
	case *Delete:
		if p := db.planFor(cs); p.del == nil {
			err = fmt.Errorf("sql: no such table %s", s.Table)
		} else {
			shape = ShapeDelete
			res, err = db.runDelete(p.del.table, s, p.del, params)
			db.noteWrite(p.del.table, res, err)
		}
	case *Insert:
		if p := db.planFor(cs); p.ins == nil {
			err = fmt.Errorf("sql: no such table %s", s.Table)
		} else {
			shape = ShapeInsert
			res, err = db.runInsert(p.ins.table, s, p.ins, params)
			db.noteWrite(p.ins.table, res, err)
		}
	case *CreateTable:
		res, err = db.execCreateTable(s)
	case *CreateIndex:
		res, err = db.execCreateIndex(s)
	case *AlterTableAdd:
		res, err = db.execAlterAdd(s)
	case *DropTable:
		res, err = db.execDropTable(s)
	default:
		err = fmt.Errorf("sql: unsupported statement %T", cs.Stmt)
	}
	return res, shape, err
}

// noteWrite records a successful INSERT, UPDATE or DELETE that wrote a
// row as a change of t. Caller holds mu.
func (db *DB) noteWrite(t *Table, res *Result, err error) {
	if err == nil && res.Affected > 0 {
		db.noteChange(t)
	}
}

func (db *DB) execCreateTable(s *CreateTable) (*Result, error) {
	if _, exists := db.tables[s.Table]; exists {
		if s.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("sql: table %s already exists", s.Table)
	}
	if len(s.Columns) == 0 {
		return nil, fmt.Errorf("sql: table %s has no columns", s.Table)
	}
	t := &Table{
		Name:    s.Table,
		indexes: make(map[string]*colIndex),
	}
	seen := make(map[string]bool)
	for _, c := range s.Columns {
		if seen[c.Name] {
			return nil, fmt.Errorf("sql: table %s: duplicate column %s", s.Table, c.Name)
		}
		seen[c.Name] = true
		t.Columns = append(t.Columns, c)
	}
	t.Uniques = append(t.Uniques, s.Uniques...)
	t.rebuildColIdx()
	if err := t.buildUniqueSets(); err != nil {
		return nil, err
	}
	db.tables[s.Table] = t
	db.noteChange(t)
	db.bumpEpoch()
	return &Result{}, nil
}

func (db *DB) execCreateIndex(s *CreateIndex) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sql: no such table %s", s.Table)
	}
	ci, ok := t.columnPos(s.Column)
	if !ok {
		return nil, fmt.Errorf("sql: table %s: no such column %s", s.Table, s.Column)
	}
	sufPos := -1
	if s.Suffix != "" {
		if sufPos, ok = t.columnPos(s.Suffix); !ok || sufPos == ci {
			return nil, fmt.Errorf("sql: table %s: no usable suffix column %s", s.Table, s.Suffix)
		}
	}
	if _, exists := t.indexes[s.Column]; exists {
		// An index on the same column is equivalent; treat re-creation as OK.
		return &Result{}, nil
	}
	ix := t.newColIndex(ci, sufPos)
	t.store.forEachLive(func(slot int, r *row) error {
		ix.add(r.vals, slot)
		return nil
	})
	t.indexes[s.Column] = ix
	db.noteChange(t)
	db.bumpEpoch()
	return &Result{}, nil
}

func (db *DB) execAlterAdd(s *AlterTableAdd) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sql: no such table %s", s.Table)
	}
	if t.HasColumn(s.Column.Name) {
		return nil, fmt.Errorf("sql: table %s: column %s already exists", s.Table, s.Column.Name)
	}
	def := Null()
	if s.Column.Default != nil {
		def = s.Column.Default.Value
	}
	if s.Column.NotNull && def.IsNull() && t.liveRows > 0 {
		return nil, fmt.Errorf("sql: table %s: cannot add NOT NULL column %s without default", s.Table, s.Column.Name)
	}
	t.Columns = append(t.Columns, s.Column)
	t.rebuildColIdx()
	t.store.forEachLive(func(_ int, r *row) error {
		r.vals = append(r.vals, def)
		return nil
	})
	db.noteChange(t)
	db.bumpEpoch()
	return &Result{}, nil
}

func (db *DB) execDropTable(s *DropTable) (*Result, error) {
	if _, ok := db.tables[s.Table]; !ok {
		if s.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("sql: no such table %s", s.Table)
	}
	delete(db.tables, s.Table)
	db.bumpEpoch()
	return &Result{}, nil
}

func (db *DB) runInsert(t *Table, s *Insert, p *insertPlan, params []Value) (*Result, error) {
	if p.posErr != nil {
		return nil, p.posErr
	}
	colPos := p.colPos
	res := &Result{Affected: 0}
	if len(s.Returning) > 0 {
		res.Columns = append(res.Columns, s.Returning...)
	}
	newRows := make([][]Value, 0, len(p.rows))
	for _, exprRow := range p.rows {
		if len(exprRow) != len(colPos) {
			return nil, fmt.Errorf("sql: table %s: %d values for %d columns", s.Table, len(exprRow), len(colPos))
		}
		vals := make([]Value, len(t.Columns))
		assigned := make([]bool, len(t.Columns))
		for i, e := range exprRow {
			v, err := e(nil, params)
			if err != nil {
				return nil, err
			}
			vals[colPos[i]] = v
			assigned[colPos[i]] = true
		}
		for ci, cd := range t.Columns {
			if !assigned[ci] && cd.Default != nil {
				vals[ci] = cd.Default.Value
			}
		}
		newRows = append(newRows, vals)
	}
	if err := t.admit(newRows); err != nil {
		return nil, err
	}
	for _, vals := range newRows {
		res.Affected++
		if len(s.Returning) > 0 {
			out, err := t.projectColumns(s.Returning, vals)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, out)
		}
	}
	return res, nil
}

// admit stores new rows in fresh slots, in order, once every one is
// valid — types, NOT NULL, uniqueness against the table and each other —
// so a statement that fails stores none (statements are atomic).
func (t *Table) admit(rows [][]Value) error {
	var batch map[batchKey]bool
	if len(rows) > 1 {
		batch = make(map[batchKey]bool)
	}
	for _, vals := range rows {
		if err := t.checkRow(vals); err != nil {
			return err
		}
		if err := t.checkUnique(vals, batch); err != nil {
			return err
		}
	}
	for _, vals := range rows {
		t.indexAdd(t.store.alloc(vals), vals)
		t.liveRows++
	}
	return nil
}

// checkRow validates types and NOT NULL constraints.
func (t *Table) checkRow(vals []Value) error {
	for ci, cd := range t.Columns {
		v := vals[ci]
		if v.IsNull() {
			if cd.NotNull {
				return fmt.Errorf("sql: table %s: column %s is NOT NULL", t.Name, cd.Name)
			}
			continue
		}
		switch cd.Type {
		case KindInt:
			if v.Kind == KindBool {
				vals[ci] = Int(v.AsInt())
			} else if v.Kind != KindInt {
				return fmt.Errorf("sql: table %s: column %s expects INTEGER, got %s", t.Name, cd.Name, v.Kind)
			}
		case KindText:
			if v.Kind != KindText {
				vals[ci] = Text(v.AsText())
			}
		case KindBool:
			if v.Kind == KindInt {
				vals[ci] = Bool(v.Int != 0)
			} else if v.Kind != KindBool {
				return fmt.Errorf("sql: table %s: column %s expects BOOLEAN, got %s", t.Name, cd.Name, v.Kind)
			}
		}
	}
	return nil
}

// batchKey is a unique key an earlier row of the same statement claimed:
// the constraint's position and the key.
type batchKey struct {
	c   int
	key string
}

// checkUnique reports the first unique constraint a new row would
// violate, against the stored rows and — batch non-nil — the keys the
// statement's earlier rows claimed, which then gain this row's.
func (t *Table) checkUnique(vals []Value, batch map[batchKey]bool) error {
	for i, us := range t.uniques {
		key, ok := us.keyFor(vals)
		if !ok {
			continue
		}
		bk := batchKey{c: i, key: key}
		if _, dup := us.m[key]; dup || batch[bk] {
			kv := make([]Value, len(us.cols))
			for j, ci := range us.cols {
				kv[j] = vals[ci]
			}
			return &UniqueViolationError{Table: t.Name, Constraint: us.def, Key: kv}
		}
		if batch != nil {
			batch[bk] = true
		}
	}
	return nil
}

// UniqueViolationError reports an INSERT or UPDATE that would violate a
// unique constraint. WARP's repair watches for changes in whether an INSERT
// succeeds (§6), so this condition is a distinguished type.
type UniqueViolationError struct {
	Table      string
	Constraint UniqueConstraint
	// Key is the new row's values of the constraint's columns, in
	// Constraint.Columns order.
	Key []Value
}

// Error implements the error interface.
func (e *UniqueViolationError) Error() string {
	return fmt.Sprintf("sql: table %s: duplicate value violates %s", e.Table, e.Constraint.String())
}

// IsUniqueViolation reports whether err is a unique constraint violation.
func IsUniqueViolation(err error) bool {
	_, ok := err.(*UniqueViolationError)
	return ok
}

func (t *Table) indexAdd(slot int, vals []Value) {
	for _, ix := range t.indexes {
		ix.add(vals, slot)
	}
	for _, us := range t.uniques {
		if key, ok := us.keyFor(vals); ok {
			us.m[key] = slot
		}
	}
}

func (t *Table) indexRemove(slot int, vals []Value) {
	for _, ix := range t.indexes {
		ix.remove(vals, slot)
	}
	for _, us := range t.uniques {
		if key, ok := us.keyFor(vals); ok {
			if cur, exists := us.m[key]; exists && cur == slot {
				delete(us.m, key)
			}
		}
	}
}

func (t *Table) projectColumns(cols []string, vals []Value) ([]Value, error) {
	out := make([]Value, len(cols))
	for i, c := range cols {
		ci, ok := t.columnPos(c)
		if !ok {
			return nil, fmt.Errorf("sql: table %s: no such column %s", t.Name, c)
		}
		out[i] = vals[ci]
	}
	return out, nil
}

// matchSlots returns the slots whose rows satisfy the compiled
// predicate, visiting the index postings the plan selected (or every
// live row), and counts the scan by access path. usedIndex reports
// whether an index narrowed the scan; inOrder reports that the slots
// come back in the requested ORDER BY order, letting the caller skip its
// sort step. When order is nil — or the plan falls back at execution
// time — slots come back sorted ascending: postings are kept sorted, and
// the fallback scans in slot order, so results are identical to a full
// scan.
func (t *Table) matchSlots(scan *scanPlan, order *orderIdxPlan, pred rowPred, params []Value) (matched []int, usedIndex, inOrder bool, err error) {
	handled := false
	if scan != nil {
		matched, handled, err = t.indexScan(scan, order, pred, params)
		usedIndex, inOrder = handled, handled && order != nil
	}
	if !handled && order != nil {
		matched, handled, err = t.orderedWalk(order, pred, params)
		inOrder = handled
	}
	if handled {
		postingsMatched.Add(uint64(len(matched)))
	} else {
		err = t.store.forEachLive(func(slot int, r *row) error {
			ok, err := pred(r.vals, params)
			if err != nil {
				return err
			}
			if ok {
				matched = append(matched, slot)
			}
			return nil
		})
	}
	if err != nil {
		return nil, false, false, err
	}
	if usedIndex {
		indexScans.Inc()
	} else {
		fullScans.Inc()
	}
	return matched, usedIndex, inOrder, nil
}

// filterSlots appends the slots from one posting list whose rows satisfy
// pred.
func (t *Table) filterSlots(slots []int, pred rowPred, params []Value, dst []int) ([]int, error) {
	postingsVisited.Add(uint64(len(slots)))
	for _, slot := range slots {
		r := t.store.rowAt(slot)
		if r.deleted {
			continue
		}
		ok, err := pred(r.vals, params)
		if err != nil {
			return nil, err
		}
		if ok {
			dst = append(dst, slot)
		}
	}
	return dst, nil
}

// probe appends, in slot order, the slots of one key's postings whose
// rows satisfy pred. A bucket in suffix order is first cut to the run the
// plan's suffix bound admits (pred re-checks the whole WHERE, so the bound
// only narrows) and its matches put back in slot order — where they
// already are when the admitted rows tie on the suffix.
func (t *Table) probe(ix *colIndex, scan *scanPlan, key string, pred rowPred, params []Value, dst []int) ([]int, error) {
	b, n := ix.buckets[key], len(dst)
	if sb := scan.suffix; sb != nil {
		v, empty, ok := sb.val.rangeValue(sb.kind, params)
		if empty {
			return dst, nil // NULL bound: the conjunct is true of no row
		}
		if ok {
			b = ix.admitted(b, sb.op, v)
		}
	}
	dst, err := t.filterSlots(b, pred, params, dst)
	if ix.sufPos >= 0 && err == nil && !sort.IntsAreSorted(dst[n:]) {
		sort.Ints(dst[n:])
	}
	return dst, err
}

// admitted returns the run of b — one key's postings in suffix order —
// that `suffix op v` can be true of. Only `=` has postings to skip before
// its run; the run's end is found by walking it, as it is visited anyway.
func (ix *colIndex) admitted(b []int, op BinOp, v Value) []int {
	suf := func(i int) Value { return ix.store.rowAt(b[i]).vals[ix.sufPos] }
	start := 0
	if op == OpEq {
		start = sort.Search(len(b), func(i int) bool { return !suffixBefore(suf(i), v) })
	}
	end := start
	for ; end < len(b); end++ {
		if c, ok := compareValues(suf(end), v); !ok || c < 0 || (c == 0 && op == OpGt) {
			break
		}
	}
	return b[start:end]
}

// indexScan serves one eq/IN/range plan. handled=false means the plan is
// unusable this execution (missing index, unresolvable parameter, or an
// operand that would break probe semantics) and the caller must fall
// back to scanning.
func (t *Table) indexScan(scan *scanPlan, order *orderIdxPlan, pred rowPred, params []Value) (matched []int, handled bool, err error) {
	ix, exists := t.indexes[scan.column]
	if !exists {
		return nil, false, nil
	}
	switch scan.kind {
	case scanEq:
		key, ok := scan.lookupKey(params)
		if !ok {
			return nil, false, nil
		}
		matched, err = t.probe(ix, scan, key, pred, params, nil)
		return matched, true, err

	case scanIn:
		probes := make([]Value, 0, len(scan.in))
		for _, c := range scan.in {
			v, ok := c.resolve(params)
			if !ok {
				return nil, false, nil
			}
			if c.hasConst {
				probes = append(probes, v) // pre-coerced at plan time
				continue
			}
			if v.IsNull() {
				continue // NULL list element never equals a column value
			}
			cv, ok := CoerceToColumn(v, scan.colKind)
			if !ok {
				if scan.colKind == KindInt {
					continue // non-numeric text can never equal an integer
				}
				return nil, false, nil
			}
			probes = append(probes, cv)
		}
		// Probe in key order and drop duplicate keys, so an ordered IN
		// yields each group exactly once; descending order reverses the
		// group walk, not the slot order within a group.
		sort.SliceStable(probes, func(a, b int) bool {
			c, _ := compareValues(probes[a], probes[b])
			return c < 0
		})
		if order != nil && order.desc {
			for i, j := 0, len(probes)-1; i < j; i, j = i+1, j-1 {
				probes[i], probes[j] = probes[j], probes[i]
			}
		}
		var lastKey string
		for i, v := range probes {
			key := v.Key()
			if i > 0 && key == lastKey {
				continue
			}
			lastKey = key
			matched, err = t.probe(ix, scan, key, pred, params, matched)
			if err != nil {
				return nil, true, err
			}
		}
		if order == nil {
			sort.Ints(matched)
		}
		return matched, true, nil

	case scanRange:
		lo, emptyLo, ok := scan.rangeBoundFor(scan.lo, params)
		if !ok {
			return nil, false, nil
		}
		hi, emptyHi, ok := scan.rangeBoundFor(scan.hi, params)
		if !ok {
			return nil, false, nil
		}
		if emptyLo || emptyHi {
			return nil, true, nil // NULL bound: the conjunct is true of no row
		}
		if order != nil && order.desc {
			var groups [][]int
			ix.ord.ascendRange(lo, hi, func(slots []int) bool {
				groups = append(groups, slots)
				return true
			})
			for i := len(groups) - 1; i >= 0; i-- {
				matched, err = t.filterSlots(groups[i], pred, params, matched)
				if err != nil {
					return nil, true, err
				}
			}
			return matched, true, nil
		}
		ix.ord.ascendRange(lo, hi, func(slots []int) bool {
			matched, err = t.filterSlots(slots, pred, params, matched)
			return err == nil
		})
		if err != nil {
			return nil, true, err
		}
		if order == nil {
			sort.Ints(matched)
		}
		return matched, true, nil
	}
	return nil, false, nil
}

// orderedWalk enumerates every live row in ORDER BY order through the
// sort column's ordered index: NULL keys first ascending and last
// descending, matching the executor's sort rules, and ascending slot
// order within equal keys, matching the stable sort's tie order.
func (t *Table) orderedWalk(order *orderIdxPlan, pred rowPred, params []Value) (matched []int, handled bool, err error) {
	ix, exists := t.indexes[order.column]
	if !exists {
		return nil, false, nil
	}
	if order.desc {
		var groups [][]int
		ix.ord.ascendRange(nil, nil, func(slots []int) bool {
			groups = append(groups, slots)
			return true
		})
		for i := len(groups) - 1; i >= 0; i-- {
			matched, err = t.filterSlots(groups[i], pred, params, matched)
			if err != nil {
				return nil, true, err
			}
		}
		matched, err = t.filterSlots(ix.ord.nullSlots, pred, params, matched)
		return matched, true, err
	}
	matched, err = t.filterSlots(ix.ord.nullSlots, pred, params, nil)
	if err != nil {
		return nil, true, err
	}
	ix.ord.ascendRange(nil, nil, func(slots []int) bool {
		matched, err = t.filterSlots(slots, pred, params, matched)
		return err == nil
	})
	return matched, true, err
}

// CoerceToColumn converts a constant compared against a column to the
// column's declared type: a stored value can equal the constant only if
// its Key() is the converted constant's. It reports false when no single
// stored value stands for the constant (index probes then fall back to
// scanning, the time-travel layer's partition analysis to the table).
func CoerceToColumn(v Value, kind Kind) (Value, bool) {
	if v.IsNull() {
		return v, true
	}
	switch kind {
	case KindInt:
		if v.Kind == KindInt {
			return v, true
		}
		if n, ok := textNumeric(v); ok {
			return Int(n), true
		}
		return v, false
	case KindText:
		// Comparisons against text columns can coerce both ways (numeric
		// text equals the number); only same-kind lookups are exact enough
		// for a hash probe.
		return v, v.Kind == KindText
	case KindBool:
		switch v.Kind {
		case KindBool:
			return v, true
		case KindInt:
			return Bool(v.Int != 0), true
		}
		return v, false
	}
	return v, true
}

// runSelect executes a planned SELECT. The returned shape is the access
// path the scan actually took (ShapeOther when it failed before one was
// chosen).
func (db *DB) runSelect(s *Select, p *selectPlan, params []Value) (*Result, ExecShape, error) {
	t := p.table
	if t == nil {
		res, err := p.projectOneRow(nil, params)
		return res, ShapeOther, err
	}
	matched, usedIndex, inOrder, err := t.matchSlots(p.scan, p.orderIdx, p.where, params)
	if err != nil {
		return nil, ShapeOther, err
	}
	res, err := p.projectRows(s, matched, inOrder, params)
	return res, selectShape(p.scan, usedIndex), err
}

// projectOneRow evaluates a one-row plan's items once: over the
// aggregate slots filled from the matched rows, or row-less for a
// table-less SELECT. An aggregate query has exactly one row and takes no
// LIMIT/OFFSET.
func (p *selectPlan) projectOneRow(matched []int, params []Value) (*Result, error) {
	if p.aggs != nil {
		p.aggs.fill(matched, params)
	}
	res := &Result{Columns: append([]string(nil), p.columns...)}
	row := make([]Value, 0, len(p.items))
	for _, it := range p.items {
		if it.star {
			if p.aggs != nil {
				return nil, fmt.Errorf("sql: cannot mix * with aggregates")
			}
			return nil, fmt.Errorf("sql: SELECT * requires a FROM clause")
		}
		v, err := it.expr(nil, params)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	res.Rows = append(res.Rows, row)
	if p.aggs != nil {
		return res, nil
	}
	return p.applyLimit(res, params)
}

// projectRows turns the matched slots into the result: the one row of an
// aggregate query, or the ORDER BY / projection / DISTINCT / LIMIT
// pipeline.
func (p *selectPlan) projectRows(s *Select, matched []int, inOrder bool, params []Value) (*Result, error) {
	if p.aggs != nil {
		return p.projectOneRow(matched, params)
	}
	t := p.table
	res := &Result{Columns: append([]string(nil), p.columns...)}

	// ORDER BY: evaluate sort keys per row, stable sort by scan order —
	// unless the index walk already delivered the slots in order.
	if len(p.orderBy) > 0 && !inOrder {
		type sortRow struct {
			slot int
			keys []Value
		}
		srs := make([]sortRow, len(matched))
		keyBuf := make([]Value, len(p.orderBy)*len(matched))
		for i, slot := range matched {
			keys := keyBuf[i*len(p.orderBy) : (i+1)*len(p.orderBy) : (i+1)*len(p.orderBy)]
			vals := t.store.rowAt(slot).vals
			for j, ob := range p.orderBy {
				v, err := ob(vals, params)
				if err != nil {
					return nil, err
				}
				keys[j] = v
			}
			srs[i] = sortRow{slot: slot, keys: keys}
		}
		sort.SliceStable(srs, func(a, b int) bool {
			for j, ob := range s.OrderBy {
				va, vb := srs[a].keys[j], srs[b].keys[j]
				// NULLs sort first ascending, last descending.
				if va.IsNull() && vb.IsNull() {
					continue
				}
				if va.IsNull() {
					return !ob.Desc
				}
				if vb.IsNull() {
					return ob.Desc
				}
				c, _ := compareValues(va, vb)
				if c == 0 {
					continue
				}
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		for i, sr := range srs {
			matched[i] = sr.slot
		}
	}

	// Projection.
	var seen map[uint64]bool
	if s.Distinct {
		seen = make(map[uint64]bool)
	}
	for _, slot := range matched {
		vals := t.store.rowAt(slot).vals
		out := make([]Value, 0, p.nOut)
		for _, it := range p.items {
			if it.star {
				out = append(out, vals...)
				continue
			}
			v, err := it.expr(vals, params)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		if s.Distinct {
			fp := rowFingerprint(out)
			if seen[fp] {
				continue
			}
			seen[fp] = true
		}
		res.Rows = append(res.Rows, out)
	}

	return p.applyLimit(res, params)
}

func rowFingerprint(row []Value) uint64 {
	h := fnv.New64a()
	for _, v := range row {
		h.Write([]byte(v.Key()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// applyLimit cuts the result to the plan's OFFSET and LIMIT.
func (p *selectPlan) applyLimit(res *Result, params []Value) (*Result, error) {
	offset := 0
	if p.offset != nil {
		v, err := p.offset(nil, params)
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
	if p.limit != nil {
		v, err := p.limit(nil, params)
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

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.String()
}

// runUpdate applies SET to every matched row in place and, for a
// versioned update, keeps each row's before-image — KEEP's assignments
// applied — as a new row, admitted in match order. The statement is
// atomic: SET applies row by row and is undone on a failure, and admit
// allocates no slot unless every kept row is valid, so a failed statement
// leaves rows, indexes and the slot counter as they were.
func (db *DB) runUpdate(t *Table, s *Update, p *updatePlan, params []Value) (*Result, error) {
	if p.err != nil {
		return nil, p.err
	}
	// Two passes: find matches first so that updates do not affect the scan.
	matched, _, _, err := t.matchSlots(p.scan, nil, p.where, params)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if len(s.Returning) > 0 {
		res.Columns = append(res.Columns, s.Returning...)
	}
	// olds[i] is the before-image of matched[i], for the rows updated so far.
	olds := make([][]Value, 0, len(matched))
	fail := func(err error) (*Result, error) {
		for i := len(olds) - 1; i >= 0; i-- {
			r := t.store.rowAt(matched[i])
			t.indexRemove(matched[i], r.vals)
			r.vals = olds[i]
			t.indexAdd(matched[i], olds[i])
		}
		return nil, err
	}
	for _, slot := range matched {
		oldVals := t.store.rowAt(slot).vals
		newVals := append([]Value(nil), oldVals...)
		if err := p.set.apply(oldVals, newVals, params); err != nil {
			return fail(err)
		}
		if err := t.checkRow(newVals); err != nil {
			return fail(err)
		}
		// Uniqueness: remove self, test, and re-add.
		t.indexRemove(slot, oldVals)
		if err := t.checkUnique(newVals, nil); err != nil {
			t.indexAdd(slot, oldVals)
			return fail(err)
		}
		t.store.rowAt(slot).vals = newVals
		t.indexAdd(slot, newVals)
		olds = append(olds, oldVals)
		if len(p.ret) > 0 {
			res.Rows = append(res.Rows, p.returning(oldVals, newVals))
		}
	}
	res.Affected = len(olds)
	if len(p.keep.exprs) == 0 {
		return res, nil
	}
	kept := make([][]Value, len(olds))
	for i, oldVals := range olds {
		kept[i] = append([]Value(nil), oldVals...)
		if err := p.keep.apply(oldVals, kept[i], params); err != nil {
			return fail(err)
		}
	}
	if err := t.admit(kept); err != nil {
		return fail(err)
	}
	return res, nil
}

func (db *DB) runDelete(t *Table, s *Delete, p *deletePlan, params []Value) (*Result, error) {
	matched, _, _, err := t.matchSlots(p.scan, nil, p.where, params)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if len(s.Returning) > 0 {
		res.Columns = append(res.Columns, s.Returning...)
	}
	for _, slot := range matched {
		vals := t.store.rowAt(slot).vals
		if len(s.Returning) > 0 {
			out, err := t.projectColumns(s.Returning, vals)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, out)
		}
		t.indexRemove(slot, vals)
		t.store.kill(slot)
		t.liveRows--
		res.Affected++
	}
	return res, nil
}
