package ttdb

// The rewrite: how every statement reaches the raw engine.
//
// WARP's time-travel database is a query rewriter (§4): an application
// statement becomes an augmented statement over the version columns, and
// repair re-runs the same rewrite at an old time in the next generation.
// This file is that one mechanism. Nothing in this package executes an
// AST it built for the occasion; everything runs a prepared handle
// (*sqldb.CachedStmt) whose visibility time, generation, and row values
// arrive as parameters, so the raw engine compiles each form once per
// DDL epoch and every later execution is a plan hit:
//
//   - application statements execute their stmtAug, cached on the
//     statement's own handle (its Aux slot, beside the partition
//     footprint — footprint.go): the version predicate reads
//     the time and generation from two parameters appended after the
//     application's, and an INSERT reads its synthesized row IDs from
//     parameters after those;
//   - repair and recovery internals — demotion, revival, version probes,
//     purges — execute the tableStmts handles hung off the table's meta.
//
// A version copy is never an INSERT of its own: the engine's KEEP clause
// files it in the same statement that closes or confines the version it
// copies (sqldb.Update).
//
// The recorded Record is untouched by any of this: Record.SQL stays the
// original statement's canonical text and Record.Params the
// application's parameters.
//
// Both caches are invalidated by the raw engine's DDL epoch (star
// expansion and the physical column list depend on the table's columns,
// and the engine re-plans on the same signal). A parameter vector that
// does not match the statement's placeholders never gets here: the entry
// points refuse it with *sqldb.ParamCountError before taking a lock,
// ticking the clock, or creating a record.

import (
	"fmt"
	"slices"

	"warp/internal/sqldb"
)

// stmtAug is the parameterized augmentation of one application
// statement. Which handles are set depends on the verb.
type stmtAug struct {
	epoch uint64
	// err is a statement the rewriter refuses (a write to a reserved or
	// row-ID column, an INSERT row of the wrong arity), reported by every
	// execution.
	err error
	// read is what a SELECT executes as. For UPDATE and DELETE it is the
	// capture select — the full physical rows the application's WHERE
	// matches among the visible versions — which finds the rows two-phase
	// re-execution rolls back.
	read *sqldb.CachedStmt
	// write is what a write executes as: the INSERT with its bookkeeping
	// columns appended; the versioned UPDATE, which updates the live
	// versions in place with start_time bumped to t and keeps each
	// before-image as history closed at t, in one engine statement; or —
	// for DELETE — the interval-closing UPDATE (end_time = t, §4.2).
	write *sqldb.CachedStmt
	// fork, for UPDATE and DELETE, is what two-phase re-execution runs
	// before the write in the next generation: each matched version still
	// shared with the current generation is confined to it and a
	// next-generation copy takes its place (§4.4).
	fork *sqldb.CachedStmt
}

// augFor returns the cached augmentation of cs against table m,
// rebuilding it when the engine's DDL epoch moved. The caller holds m's
// lock: ALTER TABLE moves the epoch and then grows m.userCols, both
// under lockAll, and an unlocked build in between would cache the old
// column list under the new epoch. Concurrent rebuilds by shared holders
// are benign (last writer wins; both results are equivalent).
func (db *DB) augFor(m *tableMeta, cs *sqldb.CachedStmt) *stmtAug {
	epoch := db.raw.Epoch()
	st := stateFor(m, cs)
	if a := st.aug.Load(); a != nil && a.epoch == epoch {
		return a
	}
	n := cs.NumParams()
	a := &stmtAug{epoch: epoch}
	sharedFork := func(where sqldb.Expr) *sqldb.CachedStmt {
		return fork(m.name, sqldb.And(liveCloneWhere(where, n), cmp(ColStartGen, sqldb.OpLt, n+1)), n+1)
	}
	switch s := cs.Stmt.(type) {
	case *sqldb.Select:
		aug := s.Clone().(*sqldb.Select)
		expandStars(m, aug)
		aug.Where = sqldb.And(aug.Where, liveWhereParams(n))
		a.read = sqldb.NewCachedStmt(aug)
	case *sqldb.Insert:
		cols := s.Columns
		if len(cols) == 0 {
			cols = m.userCols
		}
		a.err = m.checkWritableColumns(cols, true)
		aug := s.Clone().(*sqldb.Insert)
		aug.Columns = append(append([]string{}, cols...), m.metaColumns()...)
		for i := range aug.Rows {
			if len(aug.Rows[i]) != len(cols) && a.err == nil {
				a.err = fmt.Errorf("ttdb: table %s: %d values for %d columns", s.Table, len(aug.Rows[i]), len(cols))
			}
			if m.synthetic {
				aug.Rows[i] = append(aug.Rows[i], &sqldb.Param{Index: n + 2 + i})
			}
			aug.Rows[i] = append(aug.Rows[i],
				&sqldb.Param{Index: n}, sqldb.Lit(sqldb.Int(Infinity)),
				&sqldb.Param{Index: n + 1}, sqldb.Lit(sqldb.Int(Infinity)))
		}
		aug.Returning = returningWithMeta(m, s.Returning)
		a.write = sqldb.NewCachedStmt(aug)
	case *sqldb.Update:
		setCols := make([]string, len(s.Set))
		for i, as := range s.Set {
			setCols[i] = as.Column
		}
		a.err = m.checkWritableColumns(setCols, false)
		a.read = sqldb.NewCachedStmt(m.physicalSelect(liveCloneWhere(s.Where, n)))
		upd := s.Clone().(*sqldb.Update)
		upd.Set = append(upd.Set, sqldb.Assignment{Column: ColStartTime, Expr: &sqldb.Param{Index: n}})
		upd.Where = liveCloneWhere(s.Where, n)
		upd.Keep = []sqldb.Assignment{{Column: ColEndTime, Expr: &sqldb.Param{Index: n}}}
		upd.Returning = append(returningWithMeta(m, s.Returning), beforeImage(m, setCols)...)
		a.write = sqldb.NewCachedStmt(upd)
		a.fork = sharedFork(s.Where)
	case *sqldb.Delete:
		a.read = sqldb.NewCachedStmt(m.physicalSelect(liveCloneWhere(s.Where, n)))
		a.write = sqldb.NewCachedStmt(&sqldb.Update{
			Table:     s.Table,
			Set:       []sqldb.Assignment{{Column: ColEndTime, Expr: &sqldb.Param{Index: n}}},
			Where:     liveCloneWhere(s.Where, n),
			Returning: returningWithMeta(m, s.Returning),
		})
		a.fork = sharedFork(s.Where)
	}
	st.aug.Store(a)
	return a
}

// beforeImage names the before-image columns (OLD.c) a versioned UPDATE
// hands back beside returningWithMeta's: every partition column its SET
// writes, so the write set also names the partitions rows left, and —
// for a single-column SET — that column, the pre-image online repair
// merges against (capturePreImage).
func beforeImage(m *tableMeta, setCols []string) []string {
	var out []string
	for _, pc := range m.parts {
		if slices.Contains(setCols, pc.name) {
			out = append(out, sqldb.OldPrefix+pc.name)
		}
	}
	if len(setCols) == 1 && m.partCol(setCols[0]) == nil {
		out = append(out, sqldb.OldPrefix+setCols[0])
	}
	return out
}

// fork prepares the statement that confines every version where matches
// to the current generation — one before the generation in parameter g —
// and keeps a copy of it that generation g and later see, with extra
// overrides (§4.4).
func fork(table string, where sqldb.Expr, g int, extra ...sqldb.Assignment) *sqldb.CachedStmt {
	cur := &sqldb.BinaryExpr{Op: sqldb.OpSub, Left: &sqldb.Param{Index: g}, Right: sqldb.Lit(sqldb.Int(1))}
	return sqldb.NewCachedStmt(&sqldb.Update{Table: table, Where: where,
		Set: []sqldb.Assignment{{Column: ColEndGen, Expr: cur}},
		Keep: append([]sqldb.Assignment{{Column: ColStartGen, Expr: &sqldb.Param{Index: g}},
			{Column: ColEndGen, Expr: sqldb.Lit(sqldb.Int(Infinity))}}, extra...)})
}

// extParams appends the visibility time and generation to the
// application's parameters, matching liveWhereParams(len(params))'s
// placeholders, and leaves room for extra trailing values (an INSERT's
// synthesized row IDs).
func extParams(params []sqldb.Value, t, gen int64, extra int) []sqldb.Value {
	n := len(params)
	ext := make([]sqldb.Value, n+2+extra)
	copy(ext, params)
	ext[n] = sqldb.Int(t)
	ext[n+1] = sqldb.Int(gen)
	return ext
}

// liveCloneWhere conjoins a fresh clone of an application WHERE with the
// parameterized visibility predicate.
func liveCloneWhere(where sqldb.Expr, n int) sqldb.Expr {
	var w sqldb.Expr
	if where != nil {
		w = where.CloneExpr()
	}
	return sqldb.And(w, liveWhereParams(n))
}

// returningWithMeta is the application's RETURNING list plus the row-ID
// and partition columns every write path appends for noteWrittenRows.
func returningWithMeta(m *tableMeta, app []string) []string {
	ret := append(append([]string{}, app...), m.rowIDCol)
	for _, pc := range m.parts {
		ret = append(ret, pc.name)
	}
	return ret
}

// expandStars replaces * select items with the application's columns so
// WARP's bookkeeping columns stay invisible. aug must be the caller's
// own clone.
func expandStars(m *tableMeta, aug *sqldb.Select) {
	var items []sqldb.SelectItem
	for _, it := range aug.Items {
		if it.Star {
			for _, c := range m.userCols {
				items = append(items, sqldb.SelectItem{Expr: sqldb.Col(c)})
			}
			continue
		}
		items = append(items, it)
	}
	aug.Items = items
}

// cmp returns the predicate `col <op> ?idx`.
func cmp(col string, op sqldb.BinOp, idx int) sqldb.Expr {
	return &sqldb.BinaryExpr{Op: op, Left: sqldb.Col(col), Right: &sqldb.Param{Index: idx}}
}

// liveWhereParams selects the versions visible at the time in parameter
// n, in the generation in parameter n+1:
// start_time <= t < end_time AND start_gen <= g <= end_gen.
func liveWhereParams(n int) sqldb.Expr {
	return sqldb.And(
		cmp(ColStartTime, sqldb.OpLe, n), cmp(ColEndTime, sqldb.OpGt, n),
		visibleInGen(n+1))
}

// visibleInGen selects the versions visible anywhere in the generation
// in parameter idx.
func visibleInGen(idx int) sqldb.Expr {
	return sqldb.And(cmp(ColStartGen, sqldb.OpLe, idx), cmp(ColEndGen, sqldb.OpGe, idx))
}

// tableStmts are one table's prepared internal statements, built once
// per DDL epoch. Every handle that reads or writes whole physical rows
// does so in physicalColumns order, so rows flow between them without
// re-mapping.
// A "target" handle ends in five parameters naming exactly one physical
// version: row ID, start_time, end_time, start_gen, end_gen
// (physicalRow.target).
type tableStmts struct {
	epoch uint64
	colOf map[string]int // column name -> position in a physical row

	// versions (rowID, gen, since) selects the row's versions visible in
	// gen that end at or after since; the row-ID warpIndex serves the
	// bound, so a version that ended earlier is never visited.
	versions   *sqldb.CachedStmt
	setEndGen  *sqldb.CachedStmt // (endGen, target...)
	setEndTime *sqldb.CachedStmt // (endTime, target...)
	// revive (nextGen, target...) confines a shared version to the current
	// generation (one before nextGen) and keeps an open copy of it that
	// starts in nextGen: a closed version made live again in the repair
	// generation (§4.4).
	revive   *sqldb.CachedStmt
	deleteAt *sqldb.CachedStmt // (target...)
	purge    *sqldb.CachedStmt // (t, gen): versions ended before t or invisible from gen on
	dropFrom *sqldb.CachedStmt // (gen): versions created in gen or later
	reshare  *sqldb.CachedStmt // (gen): versions demoted to gen become shared again
	// uniques probe, per application uniqueness constraint, for live rows
	// holding given values of the constraint's columns.
	uniques []uniqueProbe
}

// uniqueProbe finds the live versions, visible in a generation, that
// hold the given values of one uniqueness constraint's application
// columns. Parameters: one per column, then the generation.
type uniqueProbe struct {
	cols []string
	stmt *sqldb.CachedStmt
}

// stmtsFor returns m's prepared internal statements, rebuilding them
// when the engine's DDL epoch moved. The caller holds m's lock (see
// augFor); concurrent rebuilds by shared holders are benign.
func (db *DB) stmtsFor(m *tableMeta) *tableStmts {
	epoch := db.raw.Epoch()
	if ts := m.stmts.Load(); ts != nil && ts.epoch == epoch {
		return ts
	}
	ts := &tableStmts{epoch: epoch, colOf: make(map[string]int)}
	cols := m.physicalColumns()
	for i, c := range cols {
		ts.colOf[c] = i
	}
	ts.versions = sqldb.NewCachedStmt(m.physicalSelect(
		sqldb.And(cmp(m.rowIDCol, sqldb.OpEq, 0), visibleInGen(1), cmp(ColEndTime, sqldb.OpGe, 2))))

	target := func(first int) sqldb.Expr {
		return sqldb.And(cmp(m.rowIDCol, sqldb.OpEq, first),
			cmp(ColStartTime, sqldb.OpEq, first+1), cmp(ColEndTime, sqldb.OpEq, first+2),
			cmp(ColStartGen, sqldb.OpEq, first+3), cmp(ColEndGen, sqldb.OpEq, first+4))
	}
	set := func(col string, where sqldb.Expr) *sqldb.CachedStmt {
		return sqldb.NewCachedStmt(&sqldb.Update{Table: m.name,
			Set: []sqldb.Assignment{{Column: col, Expr: &sqldb.Param{Index: 0}}}, Where: where})
	}
	del := func(where sqldb.Expr) *sqldb.CachedStmt {
		return sqldb.NewCachedStmt(&sqldb.Delete{Table: m.name, Where: where})
	}
	ts.setEndGen = set(ColEndGen, target(1))
	ts.setEndTime = set(ColEndTime, target(1))
	ts.revive = fork(m.name, target(1), 0, sqldb.Assignment{Column: ColEndTime, Expr: sqldb.Lit(sqldb.Int(Infinity))})
	ts.deleteAt = del(target(0))
	ts.purge = del(&sqldb.BinaryExpr{Op: sqldb.OpOr,
		Left: cmp(ColEndTime, sqldb.OpLt, 0), Right: cmp(ColEndGen, sqldb.OpLt, 1)})
	ts.dropFrom = del(cmp(ColStartGen, sqldb.OpGe, 0))
	ts.reshare = sqldb.NewCachedStmt(&sqldb.Update{Table: m.name,
		Set:   []sqldb.Assignment{{Column: ColEndGen, Expr: sqldb.Lit(sqldb.Int(Infinity))}},
		Where: cmp(ColEndGen, sqldb.OpEq, 0)})

	// A table missing from the engine yields no probes here and a "no
	// such table" error from whichever handle runs first.
	_, uniques, _ := db.raw.Schema(m.name)
	for _, u := range uniques {
		// The probe runs over the constraint's application columns (the
		// version end markers were appended by createTable).
		var p uniqueProbe
		usable := true
		for _, col := range u.Columns {
			switch col {
			case ColEndTime, ColEndGen:
			case ColStartTime, ColStartGen:
				usable = false
			default:
				p.cols = append(p.cols, col)
			}
		}
		if !usable || len(p.cols) == 0 {
			continue
		}
		conds := make([]sqldb.Expr, 0, len(p.cols)+2)
		for i, col := range p.cols {
			conds = append(conds, cmp(col, sqldb.OpEq, i))
		}
		conds = append(conds, sqldb.Eq(ColEndTime, sqldb.Int(Infinity)), visibleInGen(len(p.cols)))
		p.stmt = sqldb.NewCachedStmt(m.physicalSelect(sqldb.And(conds...)))
		ts.uniques = append(ts.uniques, p)
	}
	m.stmts.Store(ts)
	return ts
}

// physicalInsert prepares the one-row INSERT of a full physical row:
// one parameter per column, in cols order.
func physicalInsert(table string, cols []string) *sqldb.CachedStmt {
	row := make([]sqldb.Expr, len(cols))
	for i := range cols {
		row[i] = &sqldb.Param{Index: i}
	}
	return sqldb.NewCachedStmt(&sqldb.Insert{Table: table, Columns: cols, Rows: [][]sqldb.Expr{row}})
}

// physicalSelect builds the select of full physical rows (user columns
// plus bookkeeping columns) matching where, in scan order.
func (m *tableMeta) physicalSelect(where sqldb.Expr) *sqldb.Select {
	cols := m.physicalColumns()
	items := make([]sqldb.SelectItem, len(cols))
	for i, c := range cols {
		items[i] = sqldb.SelectItem{Expr: sqldb.Col(c)}
	}
	return &sqldb.Select{Items: items, Table: m.name, Where: where}
}
