package ttdb

import (
	"fmt"

	"warp/internal/sqldb"
)

// Exec parses and executes one query under normal execution: at the
// current logical time, in the current generation, with full versioning
// and dependency recording. The returned Record is what the caller (the
// application repair manager) stores in the action history graph.
// Parsing goes through the statement cache, so a repeated query form is
// parsed once and its canonical SQL string (Record.SQL) is built once.
//
// Statements on disjoint partition scopes — different tables, or
// disjoint lock-column keys of one table — run in parallel; statements
// on overlapping scopes serialize, with the timestamp assigned inside
// the scope so version intervals of any one partition never interleave.
// A parameter vector that does not match the statement's placeholders
// is refused with *sqldb.ParamCountError before anything else happens.
func (db *DB) Exec(src string, params ...sqldb.Value) (*sqldb.Result, *Record, error) {
	cs, err := db.stmts.Get(src)
	if err != nil {
		return nil, nil, err
	}
	if err := cs.CheckParams(params); err != nil {
		return nil, nil, err
	}
	if gate := db.writeGate.Load(); gate != nil {
		if _, isRead := cs.Stmt.(*sqldb.Select); !isRead {
			if err := (*gate)(); err != nil {
				return nil, nil, err
			}
		}
	}
	m, acc, unlock, err := db.lockFor(cs, params)
	if err != nil {
		return nil, nil, err
	}
	defer unlock()
	t := db.clock.Tick()
	res, rec, err := db.execAt(cs, params, t, db.currentGen.Load(), nil, m, acc)
	// Emit the committed mutation while the statement's scope is still
	// held, so the observer sees per-partition events in execution order.
	// Reads are not emitted (they change nothing), and neither are failed
	// writes (their only trace is the record the caller logs).
	if err == nil && rec != nil && rec.Kind != KindRead && db.obs != nil {
		db.obs.RecordApplied(rec)
	}
	return res, rec, err
}

// lockFor acquires the locks a statement needs: every table's whole
// scope for DDL, the target table's partition scope for DML, nothing for
// table-less selects. It returns the target table's meta (nil for DDL /
// table-less statements), the statement's resolved footprint — whose
// lock scope is what was acquired, before lock-manager adjustments — and
// the release function.
func (db *DB) lockFor(cs *sqldb.CachedStmt, params []sqldb.Value) (*tableMeta, access, func(), error) {
	table, isWrite, ok := dmlTable(cs.Stmt)
	if !ok {
		switch cs.Stmt.(type) {
		case *sqldb.CreateTable, *sqldb.CreateIndex, *sqldb.AlterTableAdd, *sqldb.DropTable:
			metas := db.lockAll()
			return nil, access{}, func() { db.unlockAll(metas) }, nil
		}
		return nil, access{}, nil, fmt.Errorf("ttdb: unsupported statement %T", cs.Stmt)
	}
	if table == "" {
		return nil, access{}, func() {}, nil
	}
	m, err := db.meta(table)
	if err != nil {
		return nil, access{}, nil, err
	}
	acc := stateFor(m, cs).fp.resolve(params)
	sc := acc.lock
	if db.obs != nil && isWrite {
		// A durable deployment logs every normal-execution write as a WAL
		// record, and replay rebuilds state by re-executing those records
		// serially in log order — so per-table record order must equal
		// execution order, which only holds if logged writes on one table
		// do not interleave. Logged writes therefore take the whole-table
		// scope (and still dirty only their own partitions' shards, so
		// checkpoints stay proportional to the write set); reads keep
		// partition scopes, and repair-generation re-execution (made
		// durable by its commit checkpoint, not by records) keeps
		// partition scopes too — the concurrency the partition lock
		// manager exists for.
		sc = wholeScope()
	}
	m.locks.lock(sc)
	return m, acc, func() { m.locks.unlock(sc) }, nil
}

// dmlTable returns the table a SELECT, INSERT, UPDATE, or DELETE targets
// ("" for a table-less SELECT) and whether the statement mutates table
// contents; ok is false for anything else (DDL).
func dmlTable(stmt sqldb.Statement) (table string, isWrite, ok bool) {
	switch s := stmt.(type) {
	case *sqldb.Select:
		return s.Table, false, true
	case *sqldb.Insert:
		return s.Table, true, true
	case *sqldb.Update:
		return s.Table, true, true
	case *sqldb.Delete:
		return s.Table, true, true
	}
	return "", false, false
}

// execAt dispatches a prepared statement at an explicit time and
// generation — the one executor normal execution, WAL replay, and repair
// re-execution share. The caller holds the locks lockFor would acquire;
// m is the target table's meta and acc the statement's resolved footprint
// (its reads become Record.ReadPartitions) for DML statements. The
// handle's canonical SQL becomes Record.SQL without a re-stringify. reuse
// carries the original record during repair re-execution and replay, or
// nil.
// Every non-read case marks its statement's shards dirty for the
// incremental checkpointer — before executing, so even a write that
// fails partway can only over-mark, never leave a mutated shard clean.
func (db *DB) execAt(cs *sqldb.CachedStmt, params []sqldb.Value, t, gen int64, reuse *Record, m *tableMeta, acc access) (*sqldb.Result, *Record, error) {
	rec := &Record{SQL: cs.Canonical(), Params: params, Time: t, Gen: gen, ReadPartitions: acc.reads}
	raw := func() (*sqldb.Result, error) { return db.raw.ExecCached(cs, params) }
	ddl := func(table string, run func() (*sqldb.Result, error)) (*sqldb.Result, *Record, error) {
		rec.Kind = KindDDL
		rec.Table = table
		db.markDirtyWhole(table)
		res, err := run()
		if err != nil {
			return nil, nil, err
		}
		rec.Result = res
		return res, rec, nil
	}
	switch s := cs.Stmt.(type) {
	case *sqldb.CreateTable:
		return ddl(s.Table, func() (*sqldb.Result, error) { return &sqldb.Result{}, db.createTable(s) })
	case *sqldb.CreateIndex:
		// An application's index is version-ordered like WARP's own; the
		// record keeps the application's text.
		ci := *s
		ci.Suffix = ColEndTime
		return ddl(s.Table, func() (*sqldb.Result, error) { return &sqldb.Result{}, db.rawDDL(&ci) })
	case *sqldb.AlterTableAdd:
		tm, err := db.meta(s.Table)
		if err != nil {
			return nil, nil, err
		}
		res, rec, err := ddl(s.Table, raw)
		if err == nil {
			tm.userCols = append(tm.userCols, s.Column.Name)
		}
		return res, rec, err
	case *sqldb.DropTable:
		res, rec, err := ddl(s.Table, raw)
		if err == nil {
			db.tablesMu.Lock()
			delete(db.tables, s.Table)
			db.tablesMu.Unlock()
		}
		return res, rec, err
	case *sqldb.Select:
		return db.execSelect(s, cs, params, t, gen, rec, m)
	case *sqldb.Insert:
		db.markDirtyScope(m, acc.lock)
		return db.execInsert(s, cs, params, t, gen, rec, reuse, m)
	case *sqldb.Update:
		db.markDirtyScope(m, acc.lock)
		return db.execUpdate(s, cs, params, t, gen, rec, m)
	case *sqldb.Delete:
		db.markDirtyScope(m, acc.lock)
		return db.execDelete(s, cs, params, t, gen, rec, m)
	default:
		return nil, nil, fmt.Errorf("ttdb: unsupported statement %T", cs.Stmt)
	}
}

// physicalColumns returns user columns plus WARP bookkeeping columns.
func (m *tableMeta) physicalColumns() []string {
	return append(append([]string{}, m.userCols...), m.metaColumns()...)
}

func (db *DB) execSelect(s *sqldb.Select, cs *sqldb.CachedStmt, params []sqldb.Value, t, gen int64, rec *Record, m *tableMeta) (*sqldb.Result, *Record, error) {
	rec.Kind = KindRead
	var res *sqldb.Result
	var err error
	if s.Table == "" {
		res, err = db.raw.ExecCached(cs, params)
	} else {
		rec.Table = s.Table
		res, err = db.raw.ExecCached(db.augFor(m, cs).read, extParams(params, t, gen, 0))
	}
	if err != nil {
		return nil, nil, err
	}
	rec.Result = res
	return res, rec, nil
}

// checkWritableColumns rejects application writes to reserved or row-ID
// columns: the paper requires row IDs to be assigned once and never
// overwritten (§4.1).
func (m *tableMeta) checkWritableColumns(cols []string, isInsert bool) error {
	for _, c := range cols {
		switch c {
		case ColRowID, ColStartTime, ColEndTime, ColStartGen, ColEndGen:
			return fmt.Errorf("ttdb: table %s: column %s is reserved", m.name, c)
		}
		if !isInsert && c == m.rowIDCol {
			return fmt.Errorf("ttdb: table %s: row ID column %s must not be updated", m.name, c)
		}
	}
	return nil
}

func (db *DB) execInsert(s *sqldb.Insert, cs *sqldb.CachedStmt, params []sqldb.Value, t, gen int64, rec *Record, reuse *Record, m *tableMeta) (*sqldb.Result, *Record, error) {
	rec.Kind = KindInsert
	rec.Table = s.Table
	a := db.augFor(m, cs)
	if a.err != nil {
		return nil, nil, a.err
	}
	nIDs := 0
	if m.synthetic {
		nIDs = len(s.Rows)
	}
	ext := extParams(params, t, gen, nIDs)
	if m.synthetic {
		// Synthesized row IDs ride as one trailing parameter per row.
		// Reuse the originally assigned IDs during repair and replay so
		// row identity is stable across re-execution. The allocator is
		// shared by every partition of the table, so it is touched only
		// under the bookkeeping latch.
		rids := ext[len(params)+2:]
		var reuseIDs []sqldb.Value
		if reuse != nil {
			reuseIDs = reuse.WriteRowIDs
		}
		m.mu.Lock()
		for i := range rids {
			if i < len(reuseIDs) {
				rids[i] = reuseIDs[i]
				// Keep the allocator ahead of every reused ID, so rows
				// inserted after a replayed or re-executed insert never
				// collide with it (recovery replays reuse all IDs).
				if rid := reuseIDs[i].AsInt(); rid >= m.nextRowID {
					m.nextRowID = rid + 1
				}
			} else {
				rids[i] = sqldb.Int(m.nextRowID)
				m.nextRowID++
			}
		}
		m.mu.Unlock()
	}
	nApp := len(s.Returning)
	res, err := db.raw.ExecCached(a.write, ext)
	if err != nil {
		if sqldb.IsUniqueViolation(err) {
			// A failed INSERT is still a recorded outcome: repair watches
			// for success/failure changes (§6), so the insert depends on
			// the partitions its rows would have landed in, as a set.
			rec.ErrText = err.Error()
			set := NewPartitionSet()
			set.AddAll(rec.ReadPartitions)
			rec.ReadPartitions = set.Slice()
			return nil, rec, err
		}
		return nil, nil, err
	}
	db.noteWrittenRows(m, rec, res, true)
	// An INSERT "reads" the partitions it lands in: uniqueness success
	// depends on them (§6), so repair must re-check inserts in dirty
	// partitions.
	rec.ReadPartitions = rec.WritePartitions
	rec.Result = stripResult(res, s.Returning, nApp, res.Affected)
	return rec.Result, rec, nil
}

// noteWrittenRows merges the partitions of a write's rows into the
// record's write set — an UPDATE notes its captured pre-write rows, then,
// like every write, its RETURNING rows. The rows carry the row-ID and
// partition columns by name (physical rows, or returningWithMeta's
// additions); ids also records the row IDs.
func (db *DB) noteWrittenRows(m *tableMeta, rec *Record, res *sqldb.Result, ids bool) {
	set := NewPartitionSet()
	set.AddAll(rec.WritePartitions)
	var row []sqldb.Value
	get := func(col string) sqldb.Value {
		for i, c := range res.Columns {
			if c == col {
				return row[i]
			}
		}
		return sqldb.Null()
	}
	for _, row = range res.Rows {
		id := get(m.rowIDCol)
		if ids {
			rec.WriteRowIDs = append(rec.WriteRowIDs, id)
		}
		set.AddAll(m.rowPartitions(get))
	}
	rec.WritePartitions = set.Slice()
}

// stripResult hides WARP's RETURNING additions from the application.
func stripResult(res *sqldb.Result, appReturning []string, nApp int, affected int) *sqldb.Result {
	out := &sqldb.Result{Affected: affected}
	if nApp == 0 {
		return out
	}
	out.Columns = append(out.Columns, appReturning...)
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, row[:nApp])
	}
	return out
}

func (db *DB) execUpdate(s *sqldb.Update, cs *sqldb.CachedStmt, params []sqldb.Value, t, gen int64, rec *Record, m *tableMeta) (*sqldb.Result, *Record, error) {
	rec.Kind = KindUpdate
	rec.Table = s.Table
	a := db.augFor(m, cs)
	if a.err != nil {
		return nil, nil, a.err
	}
	// One extended parameter slice drives both phases: the capture select
	// and the in-place update read the same visibility time and
	// generation, and phase 2's start_time bump reads the same time.
	ext := extParams(params, t, gen, 0)

	// Phase 1: capture the old versions of every matched row. The result
	// is consumed within this call: partition recording copies values,
	// and phase 3 re-inserts the rows themselves.
	oldRows, err := db.raw.ExecCached(a.read, ext)
	if err != nil {
		return nil, nil, err
	}
	if len(oldRows.Rows) == 0 {
		rec.Result = &sqldb.Result{Affected: 0, Columns: append([]string{}, s.Returning...)}
		return rec.Result, rec, nil
	}
	db.noteWrittenRows(m, rec, oldRows, false)
	db.capturePreImage(m, s, rec, oldRows)

	// Phase 2: update the live versions in place, bumping start_time.
	nApp := len(s.Returning)
	res, err := db.raw.ExecCached(a.write, ext)
	if err != nil {
		if sqldb.IsUniqueViolation(err) {
			rec.ErrText = err.Error()
			return nil, rec, err
		}
		return nil, nil, err
	}
	db.noteWrittenRows(m, rec, res, true)

	// Phase 3: re-insert the old versions as history, closed at t.
	if err := db.insertHistorical(m, oldRows, t); err != nil {
		return nil, nil, err
	}
	rec.Result = stripResult(res, s.Returning, nApp, res.Affected)
	return rec.Result, rec, nil
}

// capturePreImage records the overwritten value of a mergeable UPDATE:
// exactly one matched row, exactly one SET column, and a text value in
// that column before the write. The pre-image is the merge base online
// repair needs to reconcile a live write with a concurrently repaired
// value; anything wider than one row/column has no well-defined base, so
// it is simply not captured and such writes queue instead of merging.
func (db *DB) capturePreImage(m *tableMeta, s *sqldb.Update, rec *Record, oldRows *sqldb.Result) {
	if len(s.Set) != 1 || len(oldRows.Rows) != 1 {
		return
	}
	for i, c := range oldRows.Columns {
		if c == s.Set[0].Column {
			if v := oldRows.Rows[0][i]; v.Kind == sqldb.KindText {
				rec.PreImage = v.Str
				rec.HasPreImage = true
			}
			return
		}
	}
}

// insertHistorical re-inserts captured physical rows (in the table's
// physical column order) with end_time=t. The rows are consumed: their
// end_time is overwritten in place before each becomes the insert's
// parameter vector, which the engine copies.
func (db *DB) insertHistorical(m *tableMeta, oldRows *sqldb.Result, t int64) error {
	ts := db.stmtsFor(m)
	end := ts.colOf[ColEndTime]
	for _, row := range oldRows.Rows {
		row[end] = sqldb.Int(t)
		if _, err := db.raw.ExecCached(ts.insert, row); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) execDelete(s *sqldb.Delete, cs *sqldb.CachedStmt, params []sqldb.Value, t, gen int64, rec *Record, m *tableMeta) (*sqldb.Result, *Record, error) {
	rec.Kind = KindDelete
	rec.Table = s.Table

	// Deleting is closing the version interval (§4.2): set end_time = t.
	nApp := len(s.Returning)
	res, err := db.raw.ExecCached(db.augFor(m, cs).write, extParams(params, t, gen, 0))
	if err != nil {
		return nil, nil, err
	}
	db.noteWrittenRows(m, rec, res, true)
	rec.Result = stripResult(res, s.Returning, nApp, res.Affected)
	return rec.Result, rec, nil
}
