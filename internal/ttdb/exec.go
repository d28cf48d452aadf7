package ttdb

import (
	"fmt"
	"slices"
	"strings"

	"warp/internal/sqldb"
)

// Exec parses and executes one query under normal execution: at the
// current logical time, in the current generation, with full versioning
// and dependency recording. The returned Record is what the caller (the
// application repair manager) stores in the action history graph.
// Parsing goes through the statement cache, so a repeated query form is
// parsed once and its canonical SQL string (Record.SQL) is built once.
//
// Reads of one table share its lock; a write holds it exclusive, with
// the timestamp assigned inside the lock so version intervals of any one
// table never interleave.
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
	m, reads, unlock, err := db.lockFor(cs, params)
	if err != nil {
		return nil, nil, err
	}
	defer unlock()
	t := db.clock.Tick()
	res, rec, err := db.execAt(cs, params, t, db.currentGen.Load(), nil, m, reads)
	// Emit the committed mutation while the table's lock is still held,
	// so the observer sees per-table events in execution order.
	// Reads are not emitted (they change nothing), and neither are failed
	// writes (their only trace is the record the caller logs).
	if err == nil && rec != nil && rec.Kind != KindRead && db.obs != nil {
		db.obs.RecordApplied(rec)
	}
	return res, rec, err
}

// lockFor acquires the locks a statement needs: every table's lock for
// DDL, the target table's lock for DML — exclusive for a write, shared
// for a read — and nothing for table-less selects. It returns the target
// table's meta (nil for DDL / table-less statements), the statement's
// resolved read partitions and the release function.
func (db *DB) lockFor(cs *sqldb.CachedStmt, params []sqldb.Value) (*tableMeta, []Partition, func(), error) {
	table, isWrite, ok := dmlTable(cs.Stmt)
	if !ok {
		switch cs.Stmt.(type) {
		case *sqldb.CreateTable, *sqldb.CreateIndex, *sqldb.AlterTableAdd, *sqldb.DropTable:
			metas := db.lockAll()
			return nil, nil, func() { db.unlockAll(metas) }, nil
		}
		return nil, nil, nil, fmt.Errorf("ttdb: unsupported statement %T", cs.Stmt)
	}
	if table == "" {
		return nil, nil, func() {}, nil
	}
	m, unlock, err := db.lockTable(table, isWrite)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, stateFor(m, cs).fp.resolve(params), unlock, nil
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
// m is the target table's meta and reads the statement's resolved read
// partitions (they become Record.ReadPartitions) for DML statements. The
// handle's canonical SQL becomes Record.SQL without a re-stringify. reuse
// carries the original record during repair re-execution and replay, or
// nil.
func (db *DB) execAt(cs *sqldb.CachedStmt, params []sqldb.Value, t, gen int64, reuse *Record, m *tableMeta, reads []Partition) (*sqldb.Result, *Record, error) {
	rec := &Record{SQL: cs.Canonical(), Params: params, Time: t, Gen: gen, ReadPartitions: reads}
	raw := func() (*sqldb.Result, error) { return db.raw.ExecCached(cs, params) }
	ddl := func(table string, run func() (*sqldb.Result, error)) (*sqldb.Result, *Record, error) {
		rec.Kind = KindDDL
		rec.Table = table
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
		return db.execInsert(s, cs, params, t, gen, rec, reuse, m)
	case *sqldb.Update:
		return db.execUpdate(s, cs, params, t, gen, rec, m)
	case *sqldb.Delete:
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
	rec.Result = stripResult(res, s.Returning)
	return rec.Result, rec, nil
}

// noteWrittenRows merges the partitions of a write's rows into the
// record's write set, and with ids their row IDs. The rows carry the
// row-ID and partition columns by name (physical rows, or
// returningWithMeta's additions) and, from a versioned UPDATE, the
// before-image of each partition column its SET wrote (beforeImage), so
// the set names the partitions rows left as well as those they entered.
func (db *DB) noteWrittenRows(m *tableMeta, rec *Record, res *sqldb.Result, ids bool) {
	set := NewPartitionSet()
	set.AddAll(rec.WritePartitions)
	var row []sqldb.Value
	get := func(col string) sqldb.Value {
		if i := column(res, col, false); i >= 0 {
			return row[i]
		}
		return sqldb.Null()
	}
	before := func(col string) sqldb.Value {
		if i := column(res, col, true); i >= 0 {
			return row[i]
		}
		return get(col)
	}
	moved := slices.ContainsFunc(res.Columns, func(c string) bool { return strings.HasPrefix(c, sqldb.OldPrefix) })
	for _, row = range res.Rows {
		if ids {
			rec.WriteRowIDs = append(rec.WriteRowIDs, get(m.rowIDCol))
		}
		set.AddAll(m.rowPartitions(get))
		if moved {
			set.AddAll(m.rowPartitions(before))
		}
	}
	rec.WritePartitions = set.Slice()
}

// column returns the position in res of column col — of its
// before-image, OLD.col, with old — or -1.
func column(res *sqldb.Result, col string, old bool) int {
	for i, c := range res.Columns {
		if name, isOld := strings.CutPrefix(c, sqldb.OldPrefix); name == col && isOld == old {
			return i
		}
	}
	return -1
}

// stripResult hides WARP's RETURNING additions from the application.
func stripResult(res *sqldb.Result, appReturning []string) *sqldb.Result {
	out := &sqldb.Result{Affected: res.Affected}
	if len(appReturning) == 0 {
		return out
	}
	out.Columns = append(out.Columns, appReturning...)
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, row[:len(appReturning)])
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
	// One engine statement updates the live versions in place, bumping
	// start_time to t, and keeps each before-image as history closed at t.
	ext := extParams(params, t, gen, 0)
	res, err := db.raw.ExecCached(a.write, ext)
	if err != nil {
		if !sqldb.IsUniqueViolation(err) {
			return nil, nil, err
		}
		// The failed update changed nothing; its record still names the
		// rows it would have written, read by the capture select.
		rec.ErrText = err.Error()
		if old, cerr := db.raw.ExecCached(a.read, ext); cerr == nil {
			db.noteWrittenRows(m, rec, old, false)
			capturePreImage(s, rec, old, false)
		}
		return nil, rec, err
	}
	if res.Affected == 0 {
		rec.Result = &sqldb.Result{Columns: append([]string{}, s.Returning...)}
		return rec.Result, rec, nil
	}
	db.noteWrittenRows(m, rec, res, true)
	capturePreImage(s, rec, res, true)
	rec.Result = stripResult(res, s.Returning)
	return rec.Result, rec, nil
}

// capturePreImage records the overwritten value of a mergeable UPDATE,
// read from res's SET column — its before-image column with old:
// exactly one matched row, exactly one SET column, and a text value in
// that column before the write. The pre-image is the merge base online
// repair needs to reconcile a live write with a concurrently repaired
// value; anything wider than one row/column has no well-defined base, so
// it is simply not captured and such writes queue instead of merging.
func capturePreImage(s *sqldb.Update, rec *Record, res *sqldb.Result, old bool) {
	if len(s.Set) != 1 || len(res.Rows) != 1 {
		return
	}
	if i := column(res, s.Set[0].Column, old); i >= 0 {
		if v := res.Rows[0][i]; v.Kind == sqldb.KindText {
			rec.PreImage = v.Str
			rec.HasPreImage = true
		}
	}
}

func (db *DB) execDelete(s *sqldb.Delete, cs *sqldb.CachedStmt, params []sqldb.Value, t, gen int64, rec *Record, m *tableMeta) (*sqldb.Result, *Record, error) {
	rec.Kind = KindDelete
	rec.Table = s.Table

	// Deleting is closing the version interval (§4.2): set end_time = t.
	res, err := db.raw.ExecCached(db.augFor(m, cs).write, extParams(params, t, gen, 0))
	if err != nil {
		return nil, nil, err
	}
	db.noteWrittenRows(m, rec, res, true)
	rec.Result = stripResult(res, s.Returning)
	return rec.Result, rec, nil
}
